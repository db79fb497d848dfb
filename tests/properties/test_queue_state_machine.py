"""`QueueTable` against the reference model, under interleaved steps.

A hypothesis state machine drives enqueue / dequeue / ack / requeue /
sweeps / rolled-back transactions, in batches of 1-5 (a batch of one
goes through the single-message method), and after every step compares
the queue table, the READY depth and the browse order with
``tests/reference/queue_model.py``.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.clock import SimulatedClock
from repro.db import Database
from repro.errors import QueueError
from repro.queues import Message, QueueTable
from tests.reference.queue_model import ModelError, QueueModel

batch_sizes = st.integers(min_value=1, max_value=5)
new_messages = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # priority
        st.sampled_from([0.0, 0.0, 3.0]),  # visibility delay
        st.sampled_from([None, None, 5.0]),  # time to live
    ),
    min_size=1,
    max_size=5,
)


class QueueMachine(RuleBasedStateMachine):
    keep_history = False

    def __init__(self):
        super().__init__()
        self.clock = SimulatedClock(start=100.0)
        self.db = Database(clock=self.clock)
        self.queue = QueueTable(self.db, "q", keep_history=self.keep_history)
        self.model = QueueModel(keep_history=self.keep_history)
        self.ids: dict[int, int] = {}  # model uid -> message id
        self.next_uid = 0

    # -- helpers ------------------------------------------------------------

    def _build(self, specs):
        now = self.clock.now()
        built = []
        for priority, delay, ttl in specs:
            uid, self.next_uid = self.next_uid, self.next_uid + 1
            expires_at = None if ttl is None else now + ttl
            message = Message(
                payload=uid, priority=priority,
                visible_at=now + delay, expires_at=expires_at,
            )
            built.append((uid, message))
        return built

    def _enqueue(self, messages, conn=None):
        if len(messages) == 1:
            return [self.queue.enqueue(messages[0], conn=conn)]
        return self.queue.enqueue_batch(messages, conn=conn)

    def _dequeue(self, limit, conn=None):
        if limit == 1:
            message = self.queue.dequeue(consumer="c", conn=conn)
            return [] if message is None else [message]
        return self.queue.dequeue_batch(limit, consumer="c", conn=conn)

    def _ack(self, message_ids, conn=None):
        if len(message_ids) == 1:
            self.queue.ack(message_ids[0], conn=conn)
            return 1
        return self.queue.ack_batch(message_ids, conn=conn)

    def _locked(self, data, max_size=5):
        locked = self.model.in_state("locked")
        return data.draw(
            st.lists(st.sampled_from(locked), min_size=1, max_size=max_size)
        )

    # -- steps --------------------------------------------------------------

    @rule(specs=new_messages)
    def enqueue(self, specs):
        built = self._build(specs)
        ids = self._enqueue([message for _uid, message in built])
        for (uid, message), message_id in zip(built, ids):
            assert message.message_id == message_id
            self.ids[uid] = message_id
            self.model.enqueue(
                uid, message.priority, message.visible_at, message.expires_at
            )

    @rule(limit=batch_sizes)
    def dequeue(self, limit):
        got = self._dequeue(limit)
        expected = self.model.dequeue(self.clock.now(), limit)
        assert [message.payload for message in got] == expected
        for message in got:
            assert message.attempts == self.model.messages[message.payload].attempts

    @precondition(lambda self: self.model.in_state("locked"))
    @rule(data=st.data())
    def ack(self, data):
        uids = self._locked(data)  # may repeat an id: one message, acked once
        assert self._ack([self.ids[uid] for uid in uids]) == self.model.ack(uids)

    @precondition(lambda self: self.model.in_state("locked"))
    @rule(data=st.data())
    def ack_with_an_unlocked_id_changes_nothing(self, data):
        uids = self._locked(data, max_size=4)
        unlocked = self.model.in_state("ready") + self.model.in_state("expired")
        stranger = self.ids[unlocked[0]] if unlocked else 10**9
        with pytest.raises(QueueError):
            self.queue.ack_batch([self.ids[uid] for uid in uids] + [stranger])
        with pytest.raises(ModelError):
            self.model.ack(uids + [-1])

    @precondition(lambda self: self.model.in_state("locked"))
    @rule(data=st.data(), delay=st.sampled_from([0.0, 2.0]))
    def requeue(self, data, delay):
        (uid,) = self._locked(data, max_size=1)
        self.queue.requeue(self.ids[uid], delay=delay)
        self.model.requeue(uid, self.clock.now() + delay)

    @rule(seconds=st.sampled_from([1.0, 2.0, 4.0]))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @rule()
    def expire_sweep(self):
        assert self.queue.expire_messages() == self.model.expire(self.clock.now())

    @rule()
    def recover_locked(self):
        assert self.queue.recover_locked() == self.model.recover_locked()

    @rule(specs=new_messages, limit=batch_sizes, ack_some=st.booleans())
    def rolled_back_transaction(self, specs, limit, ack_some):
        """Enqueue, dequeue and ack inside a transaction that then rolls
        back: none of it happened, so the model does not move."""
        conn = self.db.connect()
        conn.begin()
        self._enqueue([message for _uid, message in self._build(specs)], conn=conn)
        got = self._dequeue(limit, conn=conn)
        if got and ack_some:
            self._ack([message.message_id for message in got[: limit // 2 + 1]], conn=conn)
        elif got:
            self.queue.requeue(got[0].message_id, delay=1.0, conn=conn)
        conn.rollback()

    # -- the comparison -----------------------------------------------------

    @invariant()
    def table_matches_model(self):
        table = self.db.catalog.table(self.queue.table_name)
        stored = {
            Message.from_row("q", rowid, row).payload: (
                row["state"], row["attempts"], row["priority"]
            )
            for rowid, row in table.scan()
        }
        assert stored == self.model.stored()

    @invariant()
    def ready_order_matches_model(self):
        ready = self.model.in_state("ready")
        assert self.queue.depth() == len(ready)
        assert [message.payload for message in self.queue.browse()] == ready


class HistoryQueueMachine(QueueMachine):
    keep_history = True


TestQueueStateMachine = QueueMachine.TestCase
TestQueueStateMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestHistoryQueueStateMachine = HistoryQueueMachine.TestCase
TestHistoryQueueStateMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
