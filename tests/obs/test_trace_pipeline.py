"""End-to-end trace-id propagation (the tracking story of §2.2).

One event, captured at the database boundary, must carry one stable
trace id through rules → staging queue → cross-broker propagation →
reliable delivery — including retries and dead-letter tombstones — and
the TraceLog must reconstruct the full hop list from that id alone.
"""

import pytest

from repro.capture.journal_capture import JournalCapture
from repro.capture.trigger_capture import TriggerCapture
from repro.db import Database
from repro.obs.trace import TraceLog, set_default_trace_log
from repro.pubsub.delivery import DeliveryManager
from repro.queues import Message, PropagationLink, Propagator, QueueBroker
from repro.rules.actions import EnqueueAction
from repro.rules.engine import RuleEngine


@pytest.fixture
def trace_log():
    """A fresh default TraceLog, restored after the test."""
    log = TraceLog()
    previous = set_default_trace_log(log)
    yield log
    set_default_trace_log(previous)


def _build_pipeline(db, clock):
    db.execute(
        "CREATE TABLE orders (order_id INT PRIMARY KEY, amount REAL)"
    )
    broker = QueueBroker(db)
    broker.create_queue("matched")
    engine = RuleEngine(metrics=db.obs)
    engine.add(
        "hot",
        "amount > 50",
        action=EnqueueAction(broker, "matched"),
        event_types=("orders.insert",),
    )
    remote = QueueBroker(Database(clock=clock), name="remote")
    remote.create_queue("inbox")
    propagator = Propagator(broker, "matched").add_link(
        PropagationLink(name="wire", broker=remote, queue_name="inbox")
    )
    return broker, engine, remote, propagator


class TestTriggerCaptureTrace:
    def test_one_trace_id_from_capture_to_delivery(self, db, clock, trace_log):
        broker, engine, remote, propagator = _build_pipeline(db, clock)
        capture = TriggerCapture(db, ["orders"])
        captured = []
        capture.subscribe(captured.append)
        capture.subscribe(engine.evaluate)

        db.execute("INSERT INTO orders (order_id, amount) VALUES (1, 75.0)")
        clock.advance(1.0)

        assert len(captured) == 1
        trace_id = captured[0].trace_id
        assert isinstance(trace_id, str)

        # The rule-produced message carries the event's trace id.
        assert propagator.pump() == 1
        clock.advance(1.0)

        # Reliable consumption on the remote side: the consumer crashes
        # once (retry) and then succeeds — same trace throughout.
        delivery = DeliveryManager(remote, "inbox", max_attempts=3)
        crashes = [True]
        def consumer(message):
            assert message.headers["trace_id"] == trace_id
            if crashes:
                crashes.pop()
                raise RuntimeError("first attempt fails")
        assert delivery.process_batch(consumer, batch=1) == 0
        clock.advance(1.0)
        assert delivery.process_batch(consumer, batch=1) == 1

        stages = [hop.stage for hop in trace_log.lookup(trace_id)]
        for stage in (
            "capture",
            "rule.match",
            "queue.enqueue",
            "queue.dequeue",
            "propagate.forwarded",
            "delivery.redelivered",
            "delivery.consumed",
        ):
            assert stage in stages, f"missing hop {stage!r} in {stages}"
        # Capture precedes everything; successful consumption is last.
        assert stages[0] == "capture"
        assert stages[-1] == "delivery.consumed"
        # The hop list is reconstructable from the id alone — no other
        # trace's hops bleed in.
        assert {hop.trace_id for hop in trace_log.lookup(trace_id)} == {trace_id}

    def test_unrelated_events_get_distinct_traces(self, db, clock, trace_log):
        db.execute("CREATE TABLE orders (order_id INT PRIMARY KEY, amount REAL)")
        capture = TriggerCapture(db, ["orders"])
        captured = []
        capture.subscribe(captured.append)
        db.execute("INSERT INTO orders (order_id, amount) VALUES (1, 10.0)")
        db.execute("INSERT INTO orders (order_id, amount) VALUES (2, 20.0)")
        assert len({event.trace_id for event in captured}) == 2


class TestJournalCaptureTrace:
    def test_mined_event_is_traced_into_the_queue(self, db, clock, trace_log):
        broker, engine, remote, propagator = _build_pipeline(db, clock)
        capture = JournalCapture(db, ["orders"])
        capture.subscribe(engine.evaluate)

        db.execute("INSERT INTO orders (order_id, amount) VALUES (9, 99.0)")
        events = capture.poll()
        assert len(events) == 1
        trace_id = events[0].trace_id
        assert isinstance(trace_id, str)

        message = broker.consume("matched", principal="test")
        assert message.headers["trace_id"] == trace_id
        stages = [hop.stage for hop in trace_log.lookup(trace_id)]
        assert stages[0] == "capture"
        assert "rule.match" in stages
        assert "queue.enqueue" in stages


class TestDeadLetterTrace:
    def test_tombstone_headers_stay_on_trace(self, db, clock, trace_log):
        broker = QueueBroker(db)
        broker.create_queue("jobs")
        broker.publish("jobs", Message(payload={"job": 1}))
        original = next(iter(broker.queue("jobs").browse()))
        trace_id = original.headers["trace_id"]

        delivery = DeliveryManager(
            broker, "jobs", max_attempts=1, dead_letter_queue="jobs_dlq"
        )
        def consumer(message):
            raise RuntimeError("always fails")
        delivery.process_batch(consumer, batch=1)
        clock.advance(1.0)
        delivery.process_batch(consumer, batch=1)

        dead = broker.consume("jobs_dlq", principal="test")
        assert dead is not None
        assert dead.headers["trace_id"] == trace_id
        assert dead.headers["origin_queue"] == "jobs"
        stages = [hop.stage for hop in trace_log.lookup(trace_id)]
        assert "delivery.dead_letter" in stages


class TestPropagationRetryTrace:
    def test_retry_hops_recorded(self, db, clock, trace_log):
        broker = QueueBroker(db)
        broker.create_queue("outbox")

        class Flaky:
            def __init__(self):
                self.failures = 1
                self.received = []
            def deliver(self, message):
                if self.failures:
                    self.failures -= 1
                    raise ConnectionError("down")
                self.received.append(message)

        service = Flaky()
        propagator = Propagator(broker, "outbox", base_backoff=0.1).add_link(
            PropagationLink(name="svc", service=service)
        )
        broker.publish("outbox", Message(payload={"n": 1}))
        trace_id = None

        assert propagator.pump() == 0  # first attempt fails → retry hop
        clock.advance(5.0)
        assert propagator.pump() == 1
        (message,) = service.received
        trace_id = message.headers["trace_id"]
        stages = [hop.stage for hop in trace_log.lookup(trace_id)]
        assert "propagate.retry" in stages
        assert stages[-1] == "propagate.forwarded"
