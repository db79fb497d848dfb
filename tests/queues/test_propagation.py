"""Propagation between staging areas and to external services."""

import pytest

from repro.db import Database
from repro.errors import FaultInjectedError, PropagationError
from repro.faults import BROKER_PUBLISH, FaultInjector, on_hit, raise_fault
from repro.queues import (
    Message,
    MessageState,
    PropagationLink,
    Propagator,
    QueueBroker,
)


class FlakyService:
    """External service failing the first ``failures`` deliveries."""

    def __init__(self, failures: int = 0) -> None:
        self.failures = failures
        self.received: list[Message] = []

    def deliver(self, message: Message) -> None:
        if self.failures > 0:
            self.failures -= 1
            raise ConnectionError("service unavailable")
        self.received.append(message)


@pytest.fixture
def source(db):
    broker = QueueBroker(db)
    broker.create_queue("outbox")
    return broker


@pytest.fixture
def remote(clock):
    from repro.db import Database

    broker = QueueBroker(Database(clock=clock), name="remote")
    broker.create_queue("inbox")
    return broker


class TestLinkValidation:
    def test_needs_exactly_one_target(self, remote):
        with pytest.raises(PropagationError):
            PropagationLink("bad")
        with pytest.raises(PropagationError):
            PropagationLink(
                "bad", broker=remote, queue_name="inbox", service=FlakyService()
            )
        with pytest.raises(PropagationError):
            PropagationLink("bad", broker=remote)  # no queue name

    def test_run_without_links_rejected(self, source):
        with pytest.raises(PropagationError):
            Propagator(source, "outbox").pump()


class TestForwarding:
    def test_broker_to_broker(self, source, remote):
        propagator = Propagator(source, "outbox").add_link(
            PropagationLink("r", broker=remote, queue_name="inbox")
        )
        source.publish("outbox", {"k": 1})
        assert propagator.pump() == 1
        message = remote.consume("inbox")
        assert message.payload == {"k": 1}
        assert message.headers["propagated_from"] == "outbox"
        assert source.queue("outbox").depth() == 0

    def test_external_service(self, source):
        service = FlakyService()
        propagator = Propagator(source, "outbox").add_link(
            PropagationLink("svc", service=service)
        )
        source.publish("outbox", "hello")
        propagator.pump()
        assert [m.payload for m in service.received] == ["hello"]

    def test_fan_out_to_multiple_links(self, source, remote):
        service = FlakyService()
        propagator = (
            Propagator(source, "outbox")
            .add_link(PropagationLink("r", broker=remote, queue_name="inbox"))
            .add_link(PropagationLink("svc", service=service))
        )
        source.publish("outbox", "x")
        propagator.pump()
        assert remote.queue("inbox").depth() == 1
        assert len(service.received) == 1

    def test_transform_applied(self, source, remote):
        def escalate(message: Message) -> Message:
            message.priority = 9
            return message

        propagator = Propagator(source, "outbox").add_link(
            PropagationLink("r", broker=remote, queue_name="inbox", transform=escalate)
        )
        source.publish("outbox", "x")
        propagator.pump()
        assert remote.consume("inbox").priority == 9

    def test_batch_bound(self, source, remote):
        propagator = Propagator(source, "outbox").add_link(
            PropagationLink("r", broker=remote, queue_name="inbox")
        )
        for i in range(10):
            source.publish("outbox", i)
        assert propagator.pump(batch=4) == 4
        assert source.queue("outbox").depth() == 6


class TestRetryAndDeadLetter:
    def test_failure_retries_with_backoff(self, source, clock):
        service = FlakyService(failures=2)
        propagator = Propagator(
            source, "outbox", base_backoff=1.0
        ).add_link(PropagationLink("svc", service=service))
        source.publish("outbox", "x")
        assert propagator.pump() == 0  # first attempt fails
        clock.advance(2.0)
        assert propagator.pump() == 0  # second fails
        clock.advance(4.0)
        assert propagator.pump() == 1  # third succeeds
        assert propagator.stats["retried"] == 2
        assert len(service.received) == 1

    def test_exhausted_goes_to_dead_letter(self, source, clock):
        service = FlakyService(failures=100)
        propagator = Propagator(
            source, "outbox", max_attempts=3, base_backoff=0.1,
            dead_letter_queue="dlq",
        ).add_link(PropagationLink("svc", service=service))
        source.publish("outbox", {"doomed": True})
        for _ in range(5):
            propagator.pump()
            clock.advance(10.0)
        assert propagator.stats["dead_lettered"] == 1
        assert source.queue("outbox").depth() == 0
        dead = source.consume("dlq")
        assert dead.payload == {"doomed": True}
        assert "svc" in dead.headers["dead_letter_reason"]

    def test_partial_failure_no_duplicate_on_retry(self, source, remote, clock):
        """Link A succeeds, link B fails: on retry only B re-sends."""
        service = FlakyService(failures=1)
        propagator = (
            Propagator(source, "outbox", base_backoff=0.1)
            .add_link(PropagationLink("ok", broker=remote, queue_name="inbox"))
            .add_link(PropagationLink("flaky", service=service))
        )
        source.publish("outbox", "x")
        propagator.pump()  # ok delivers, flaky fails
        clock.advance(1.0)
        propagator.pump()  # retry: only flaky delivers
        assert remote.queue("inbox").depth() == 1  # no duplicate
        assert len(service.received) == 1


class TestBackoffSchedule:
    def test_exponential_growth_until_cap(self, source):
        propagator = Propagator(
            source, "outbox", base_backoff=1.0, max_backoff=8.0
        )
        delays = [propagator.backoff_for(1, attempts) for attempts in range(1, 8)]
        # Monotonically non-decreasing in the uncapped region is NOT
        # guaranteed (jitter), but the uncapped envelope doubles...
        raw = [1.0 * 2 ** (a - 1) for a in range(1, 8)]
        for delay, ceiling in zip(delays, raw):
            assert delay <= min(ceiling, 8.0)

    def test_max_backoff_is_a_hard_ceiling(self, source):
        propagator = Propagator(
            source, "outbox", base_backoff=1.0, max_backoff=5.0
        )
        for message_id in range(1, 50):
            for attempts in range(1, 20):
                assert propagator.backoff_for(message_id, attempts) <= 5.0

    def test_jitter_is_deterministic(self, source):
        propagator = Propagator(source, "outbox", base_backoff=0.5)
        a = propagator.backoff_for(7, 3)
        b = propagator.backoff_for(7, 3)
        assert a == b

    def test_jitter_spreads_same_attempt_across_messages(self, source):
        propagator = Propagator(
            source, "outbox", base_backoff=1.0, max_backoff=100.0
        )
        delays = {propagator.backoff_for(mid, 4) for mid in range(1, 20)}
        assert len(delays) > 1, "same-batch retries would thunder in lockstep"

    def test_jitter_never_exceeds_quarter(self, source):
        propagator = Propagator(
            source, "outbox", base_backoff=2.0, max_backoff=1000.0
        )
        for message_id in range(1, 30):
            for attempts in range(1, 8):
                capped = min(2.0 * 2 ** (attempts - 1), 1000.0)
                delay = propagator.backoff_for(message_id, attempts)
                assert capped * 0.75 <= delay <= capped

    def test_requeue_uses_capped_backoff(self, source, clock):
        """A high-attempt failure retries after max_backoff, not after
        the uncapped exponential (which would be ~minutes)."""
        service = FlakyService(failures=6)
        propagator = Propagator(
            source, "outbox", max_attempts=10, base_backoff=1.0,
            max_backoff=2.0,
        ).add_link(PropagationLink("svc", service=service))
        source.publish("outbox", "x")
        attempts = 0
        while len(service.received) == 0 and attempts < 20:
            propagator.pump()
            clock.advance(2.0)  # max_backoff is always enough to retry
            attempts += 1
        assert len(service.received) == 1
        # Uncapped 2**5 = 32s would have needed far more than 2s steps:
        assert attempts <= 8


class TestBoundedDedup:
    """Regression for the formerly unbounded ``_delivered_ids`` growth."""

    def test_windows_empty_after_10k_forwarded(self, source, remote, clock):
        propagator = Propagator(source, "outbox").add_link(
            PropagationLink("r", broker=remote, queue_name="inbox")
        )
        total = 10_000
        for start in range(0, total, 500):
            source.publish_batch(
                "outbox", [Message(payload=i) for i in range(start, start + 500)]
            )
        forwarded = 0
        while forwarded < total:
            drained = propagator.pump(batch=500)
            assert drained > 0
            forwarded += drained
            # The dedup windows never retain resolved ids: bounded even
            # though every message passes through them.
            for window in propagator._delivered_ids.values():
                assert len(window) == 0
        assert propagator.stats["forwarded"] == total
        assert remote.queue("inbox").depth() == total

    def test_partial_failure_retention_is_capped(self, source, remote, clock):
        """With one link permanently down, the healthy link's dedup ids
        accumulate only until the message dead-letters — and the window
        cap bounds whatever remains in retry limbo."""
        service = FlakyService(failures=10**9)
        propagator = (
            Propagator(
                source, "outbox", max_attempts=2, base_backoff=0.1,
                dead_letter_queue="dlq", dedup_window=64,
            )
            .add_link(PropagationLink("ok", broker=remote, queue_name="inbox"))
            .add_link(PropagationLink("down", service=service))
        )
        for i in range(500):
            source.publish("outbox", i)
        for _ in range(6):
            propagator.pump(batch=500)
            clock.advance(10.0)
        assert propagator.stats["dead_lettered"] == 500
        for window in propagator._delivered_ids.values():
            assert len(window) <= 64

    def test_window_rejects_nonpositive_capacity(self):
        from repro.queues.propagation import BoundedIdWindow

        with pytest.raises(ValueError):
            BoundedIdWindow(0)

    def test_window_evicts_oldest(self):
        from repro.queues.propagation import BoundedIdWindow

        window = BoundedIdWindow(3)
        for i in range(5):
            window.add(i)
        assert len(window) == 3
        assert 0 not in window and 1 not in window
        assert 2 in window and 4 in window
        window.discard(3)
        assert len(window) == 2


class TestPumpAccounting:
    """Every message ends forwarded or dead-lettered, and the stats say
    so exactly (one accounting path, in ``pump``)."""

    def test_every_message_forwarded_or_dead_lettered(self, clock):
        from repro.db import Database

        broker = QueueBroker(Database(clock=clock))
        broker.create_queue("outbox")
        service = FlakyService(failures=5)
        propagator = Propagator(
            broker, "outbox", max_attempts=3, base_backoff=0.1,
            dead_letter_queue="dlq",
        ).add_link(PropagationLink("svc", service=service))
        for i in range(20):
            broker.publish("outbox", {"n": i})
        for _ in range(10):
            propagator.pump(batch=100)
            clock.advance(10.0)
        assert broker.queue("outbox").depth() == 0
        stats = propagator.stats
        assert stats["forwarded"] == len(service.received)
        assert stats["dead_lettered"] == broker.queue("dlq").depth()
        assert stats["forwarded"] + stats["dead_lettered"] == 20


class TestFailedDeadLetterPublish:
    """Regression: one failed dead-letter publish stranded the whole
    batch LOCKED, and no later pump ever released it."""

    def test_the_rest_of_the_batch_is_settled(self, clock):
        injector = FaultInjector()
        broker = QueueBroker(Database(clock=clock, faults=injector))
        broker.create_queue("outbox")

        class RejectsTwo:
            def __init__(self):
                self.received = []

            def deliver(self, message):
                if message.payload == 2:
                    raise ConnectionError("rejected")
                self.received.append(message.payload)

        service = RejectsTwo()
        propagator = Propagator(
            broker, "outbox", max_attempts=1, dead_letter_queue="dlq"
        ).add_link(PropagationLink("svc", service=service))
        assert broker.publish_batch("outbox", [1, 2, 3]) == [1, 2, 3]
        injector.arm(BROKER_PUBLISH, raise_fault("dlq down"), policy=on_hit(1))
        with pytest.raises(FaultInjectedError):
            propagator.pump()
        assert service.received == [1, 3]
        assert propagator.stats["forwarded"] == 2
        # The message whose dead letter failed is retryable, not LOCKED.
        left = list(broker.queue("outbox").browse(include_locked=True))
        assert [(m.message_id, m.state) for m in left] == [(2, MessageState.READY)]
        assert propagator.pump() == 0  # the next pump dead-letters it
        dead = [m.headers["origin_message_id"] for m in broker.queue("dlq").browse()]
        assert dead == [2]
        assert list(broker.queue("outbox").browse(include_locked=True)) == []
        assert propagator.stats["dead_lettered"] == 1
