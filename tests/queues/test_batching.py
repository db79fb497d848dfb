"""Batched write path: enqueue/dequeue/ack batches, the READY heap,
group commit, and the batch pumps (propagation + delivery)."""

import pytest

from repro.clock import SimulatedClock
from repro.db import Database
from repro.errors import QueueError
from repro.queues import (
    Message,
    MessageState,
    PropagationLink,
    Propagator,
    QueueBroker,
    QueueTable,
)
from repro.pubsub import DeliveryManager


@pytest.fixture
def queue(db):
    return QueueTable(db, "work")


class TestEnqueueBatch:
    def test_returns_ids_in_input_order(self, queue):
        ids = queue.enqueue_batch([{"n": i} for i in range(5)])
        assert len(ids) == 5
        assert ids == sorted(ids)
        assert queue.depth() == 5

    def test_assigns_message_ids_like_single_enqueue(self, queue):
        messages = [Message(payload={"n": i}) for i in range(3)]
        ids = queue.enqueue_batch(messages)
        assert [m.message_id for m in messages] == ids
        assert all(m.state is MessageState.READY for m in messages)

    def test_empty_batch_is_noop(self, queue):
        assert queue.enqueue_batch([]) == []
        assert queue.db.statistics["commits"] - queue.db.statistics["commits"] == 0

    def test_batch_shares_one_journal_flush(self, clock):
        db = Database(clock=clock, sync_policy="commit")
        queue = QueueTable(db, "w")
        before = db.wal.flush_count
        queue.enqueue_batch([{"n": i} for i in range(50)])
        assert db.wal.flush_count == before + 1

    def test_batch_joins_caller_transaction(self, queue, db):
        conn = db.connect()
        conn.begin()
        queue.enqueue_batch(["a", "b", "c"], conn=conn)
        conn.rollback()
        assert queue.depth() == 0
        # The heap entries left by the rollback are stale and must not
        # resurrect phantom messages.
        assert queue.dequeue() is None

    def test_dequeue_order_matches_single_path(self, queue):
        queue.enqueue_batch(
            [Message(payload=f"m{i}", priority=i % 3) for i in range(9)]
        )
        drained = [queue.dequeue() for _ in range(9)]
        priorities = [m.priority for m in drained]
        assert priorities == sorted(priorities, reverse=True)
        # FIFO within each priority class.
        for priority in (0, 1, 2):
            ids = [m.message_id for m in drained if m.priority == priority]
            assert ids == sorted(ids)


class TestDequeueBatch:
    def test_returns_up_to_limit_in_order(self, queue):
        queue.enqueue_batch(
            [Message(payload=i, priority=p) for i, p in enumerate([1, 9, 5])]
        )
        got = queue.dequeue_batch(2)
        assert [m.payload for m in got] == [1, 2]  # priorities 9, 5
        assert all(m.state is MessageState.LOCKED for m in got)
        assert queue.depth() == 1

    def test_partial_and_empty_batches(self, queue):
        assert queue.dequeue_batch(10) == []
        queue.enqueue_batch(["a", "b"])
        assert len(queue.dequeue_batch(10)) == 2
        assert queue.dequeue_batch(10) == []

    def test_delayed_high_priority_does_not_block(self, queue, clock):
        queue.enqueue(Message(payload="later", priority=9,
                              visible_at=clock.now() + 60))
        queue.enqueue(Message(payload="now", priority=0))
        got = queue.dequeue_batch(5)
        assert [m.payload for m in got] == ["now"]
        clock.advance(61)
        assert [m.payload for m in queue.dequeue_batch(5)] == ["later"]

    def test_expired_marked_and_skipped(self, queue, clock):
        queue.enqueue(Message(payload="old", expires_at=clock.now() + 1))
        queue.enqueue(Message(payload="fresh"))
        clock.advance(5)
        got = queue.dequeue_batch(5)
        assert [m.payload for m in got] == ["fresh"]
        assert queue.stats["expired"] == 1

    def test_rolled_back_batch_dequeue_releases_all(self, queue, db):
        queue.enqueue_batch(["a", "b", "c"])
        conn = db.connect()
        conn.begin()
        assert len(queue.dequeue_batch(3, conn=conn)) == 3
        conn.rollback()
        # All three are READY again and redeliverable.
        assert len(queue.dequeue_batch(3)) == 3

    def test_heap_rebuilt_after_crash_recovery(self, queue, db):
        queue.enqueue_batch(
            [Message(payload=f"m{i}", priority=i) for i in range(3)]
        )
        db.simulate_crash()
        restored = QueueTable(db, "work")
        got = restored.dequeue_batch(3)
        assert [m.payload for m in got] == ["m2", "m1", "m0"]

    def test_rebuild_ready_index_counts(self, queue):
        queue.enqueue_batch(["a", "b"])
        queue.dequeue()
        assert queue.rebuild_ready_index() == 1


class TestAckBatch:
    def test_ack_batch_consumes_all(self, queue, db):
        queue.enqueue_batch(["a", "b", "c"])
        got = queue.dequeue_batch(3)
        assert queue.ack_batch([m.message_id for m in got]) == 3
        assert len(db.catalog.table(queue.table_name)) == 0

    def test_ack_batch_one_flush(self, clock):
        db = Database(clock=clock, sync_policy="commit")
        queue = QueueTable(db, "w")
        queue.enqueue_batch([{"n": i} for i in range(20)])
        got = queue.dequeue_batch(20)
        before = db.wal.flush_count
        queue.ack_batch([m.message_id for m in got])
        assert db.wal.flush_count == before + 1

    def test_ack_batch_all_or_nothing(self, queue, db):
        queue.enqueue_batch(["a", "b"])
        got = queue.dequeue_batch(2)
        with pytest.raises(QueueError):
            queue.ack_batch([got[0].message_id, 9999])
        # The failed batch rolled back: both rows still locked.
        table = db.catalog.table(queue.table_name)
        assert table.get(got[0].message_id)["state"] == "locked"
        assert table.get(got[1].message_id)["state"] == "locked"

    def test_keep_history_batch(self, db):
        queue = QueueTable(db, "hist", keep_history=True)
        queue.enqueue_batch(["a", "b"])
        got = queue.dequeue_batch(2)
        queue.ack_batch([m.message_id for m in got])
        table = db.catalog.table(queue.table_name)
        states = {table.get(m.message_id)["state"] for m in got}
        assert states == {"consumed"}


    @pytest.mark.parametrize("keep_history", [False, True])
    def test_duplicate_ids_count_one_message(self, db, keep_history):
        """Regression: a repeated id raised a raw SchemaError on a
        default queue and double-counted on a keep_history one."""
        queue = QueueTable(db, "dup", keep_history=keep_history)
        queue.enqueue_batch(["a", "b"])
        first, second = queue.dequeue_batch(2)
        ids = [first.message_id, second.message_id, first.message_id]
        assert queue.ack_batch(ids) == 2
        assert queue.stats["acked"] == 2
        assert db.obs.snapshot()["counters"]["queue.acked{queue=dup}"] == 2
        table = db.catalog.table(queue.table_name)
        states = [row["state"] for _rowid, row in table.scan()]
        assert states == (["consumed", "consumed"] if keep_history else [])


class TestRequeueFairness:
    """A requeued message keeps its original FIFO position: it must not
    fall behind messages enqueued while it was locked (and the heap's
    rowid tie-break must preserve that across redeliveries)."""

    def test_requeue_keeps_original_position(self, queue):
        queue.enqueue("A")
        queue.enqueue("B")
        locked = queue.dequeue()
        assert locked.payload == "A"
        queue.enqueue("C")  # arrives while A is locked
        queue.requeue(locked.message_id)
        assert [queue.dequeue().payload for _ in range(3)] == ["A", "B", "C"]

    def test_requeue_fairness_via_batch_path(self, queue):
        queue.enqueue_batch(["A", "B"])
        (locked,) = queue.dequeue_batch(1)
        queue.enqueue_batch(["C"])
        queue.requeue(locked.message_id)
        got = queue.dequeue_batch(3)
        assert [m.payload for m in got] == ["A", "B", "C"]

    def test_priority_still_beats_seniority(self, queue):
        queue.enqueue(Message(payload="old-low", priority=0))
        locked = queue.dequeue()
        queue.enqueue(Message(payload="new-high", priority=5))
        queue.requeue(locked.message_id)
        assert queue.dequeue().payload == "new-high"


class TestBrokerBatchApi:
    def test_publish_consume_ack_batch(self, db):
        broker = QueueBroker(db)
        broker.create_queue("q")
        ids = broker.publish_batch("q", [{"n": i} for i in range(4)])
        assert len(ids) == 4
        got = broker.consume_batch("q", 4)
        assert len(got) == 4
        assert broker.ack_batch("q", [m.message_id for m in got]) == 4
        assert broker.queue("q").depth() == 0

    def test_batch_audited_per_message(self, db):
        broker = QueueBroker(db, audit=True)
        broker.create_queue("q")
        broker.publish_batch("q", ["a", "b"])
        entries = broker.audit.entries()
        assert sum(1 for e in entries if e["operation"] == "enqueue") == 2


    @pytest.mark.parametrize("keep_history", [False, True])
    def test_duplicate_ack_ids_audited_once_per_message(self, db, keep_history):
        broker = QueueBroker(db, audit=True)
        broker.create_queue("q", keep_history=keep_history)
        broker.publish_batch("q", ["a", "b"])
        first, second = broker.consume_batch("q", 2)
        ids = [first.message_id, first.message_id, second.message_id]
        assert broker.ack_batch("q", ids) == 2
        assert broker.stats()["q"]["acked"] == 2
        acks = [e for e in broker.audit.entries() if e["operation"] == "ack"]
        assert [e["message_id"] for e in acks] == [
            first.message_id, second.message_id
        ]


class TestPropagatorPump:
    def test_pump_forwards_and_acks_batch(self, db, clock):
        source = QueueBroker(db, name="src")
        source.create_queue("outbox")
        destination = QueueBroker(db, name="dst")
        destination.create_queue("inbox")
        propagator = Propagator(source, "outbox").add_link(
            PropagationLink("fwd", broker=destination, queue_name="inbox")
        )
        source.publish_batch("outbox", [{"n": i} for i in range(10)])
        assert propagator.pump(batch=10) == 10
        assert source.queue("outbox").depth() == 0
        assert destination.queue("inbox").depth() == 10
        assert propagator.stats["forwarded"] == 10

    def test_pump_failure_requeues_only_failed(self, db, clock):
        source = QueueBroker(db, name="src")
        source.create_queue("outbox")

        class Flaky:
            def __init__(self):
                self.calls = 0

            def deliver(self, message):
                self.calls += 1
                if message.payload["n"] == 1:
                    raise RuntimeError("boom")

        service = Flaky()
        propagator = Propagator(source, "outbox", base_backoff=0.0).add_link(
            PropagationLink("svc", service=service)
        )
        source.publish_batch("outbox", [{"n": i} for i in range(3)])
        assert propagator.pump(batch=3) == 2
        assert propagator.stats["retried"] == 1
        # The failed message is READY again; the delivered two are gone.
        assert source.queue("outbox").depth() == 1


class TestDeliveryProcessBatch:
    def test_process_batch_consumes_and_acks(self, db):
        broker = QueueBroker(db)
        broker.create_queue("q")
        broker.publish_batch("q", [{"n": i} for i in range(5)])
        manager = DeliveryManager(broker, "q")
        received = []
        assert manager.process_batch(received.append, batch=5) == 5
        assert len(received) == 5
        assert manager.stats["acked"] == 5
        assert broker.queue("q").depth() == 0

    def test_process_batch_nacks_failures(self, db):
        broker = QueueBroker(db)
        broker.create_queue("q")
        broker.publish_batch("q", [{"n": i} for i in range(3)])
        manager = DeliveryManager(broker, "q")

        def consumer(message):
            if message.payload["n"] == 1:
                raise ValueError("reject")

        assert manager.process_batch(consumer, batch=3) == 2
        assert manager.stats["consumer_errors"] == 1
        assert manager.stats["redelivered"] == 1
        assert broker.queue("q").depth() == 1

    def test_idle_pump_redelivers_timed_out_message(self, db, clock):
        """Regression: check_timeouts used to run only inside deliver(),
        so with no new traffic a dead consumer's message was never
        redelivered.  Driving the batch pump on an idle queue must
        requeue it."""
        broker = QueueBroker(db)
        broker.create_queue("q")
        broker.publish("q", {"job": 1})
        manager = DeliveryManager(broker, "q", ack_timeout=10.0)
        assert manager.deliver() is not None  # consumer dies, never acks
        clock.advance(11.0)
        # No new traffic, yet the pump must run timeouts — and the freshly
        # requeued message is redeliverable in the very same call.
        redelivered = []
        assert manager.process_batch(redelivered.append, batch=10) == 1
        assert manager.stats["redelivered"] == 1
        assert [m.payload for m in redelivered] == [{"job": 1}]
        assert broker.queue("q").depth() == 0


class TestGroupCommitDatabase:
    def test_group_commit_amortizes_flushes(self):
        clock = SimulatedClock(start=0.0)
        db = Database(clock=clock, sync_policy="commit", group_commit_size=8)
        queue = QueueTable(db, "w")
        db.wal.flush()
        before = db.wal.flush_count
        for i in range(16):
            queue.enqueue({"n": i})  # 16 commits
        assert db.wal.flush_count == before + 2  # one fsync per 8 commits

    def test_group_commit_window_bounds_latency(self):
        clock = SimulatedClock(start=0.0)
        db = Database(
            clock=clock,
            sync_policy="commit",
            group_commit_size=100,
            group_commit_window=5.0,
        )
        queue = QueueTable(db, "w")
        db.wal.flush()
        queue.enqueue({"n": 0})
        assert db.wal.pending_commits > 0
        clock.advance(6.0)
        queue.enqueue({"n": 1})  # window elapsed: this commit flushes
        assert db.wal.pending_commits == 0

    def test_group_commit_crash_loses_bounded_tail(self):
        clock = SimulatedClock(start=0.0)
        db = Database(clock=clock, sync_policy="commit", group_commit_size=4)
        queue = QueueTable(db, "w")
        db.wal.flush()
        for i in range(6):
            queue.enqueue({"n": i})  # 4 flushed at the group point, 2 pending
        db.simulate_crash()
        restored = QueueTable(db, "w")
        survivors = {m.payload["n"] for m in restored.browse()}
        assert survivors == {0, 1, 2, 3}  # at most size-1 commits lost
