"""Dead-letter durability across crash/recovery (ISSUE 3 satellite).

Dead letters are the system's record of *failure* — losing one means a
message disappeared twice.  These tests push messages into the DLQ via
both paths (DeliveryManager poison messages, Propagator delivery
exhaustion), crash, recover from the journal, and check the dead
letters — including their forensic headers — survived intact.
"""

from __future__ import annotations

import pytest

from repro.clock import SimulatedClock
from repro.db import Database
from repro.pubsub import DeliveryManager
from repro.queues import PropagationLink, Propagator, QueueBroker


class DownService:
    def deliver(self, message) -> None:
        raise ConnectionError("service is down")


@pytest.fixture
def clock():
    return SimulatedClock(start=1000.0)


def reopen(path: str) -> QueueBroker:
    """'New process': recover the database and re-attach the broker."""
    db = Database(path=path, clock=SimulatedClock(start=5000.0))
    broker = QueueBroker(db)
    for queue in ("work", "outbox", "dead"):
        if f"q_{queue}" in {t for t in db.catalog.table_names()}:
            broker.create_queue_or_attach(queue)
    return broker


class TestDeliveryManagerDlqDurability:
    def test_poison_dead_letter_survives_crash(self, tmp_path, clock):
        path = str(tmp_path / "dlq.wal")
        db = Database(path=path, clock=clock)
        broker = QueueBroker(db)
        broker.create_queue("work")
        manager = DeliveryManager(
            broker, "work", max_attempts=2, dead_letter_queue="dead"
        )
        origin_id = broker.publish(
            "work", {"poison": True}, principal="internal"
        )

        def consumer(message):
            raise ValueError("cannot process")

        for _ in range(3):
            manager.process_batch(consumer)
        assert manager.stats["dead_lettered"] == 1
        db.simulate_crash()  # drops volatile state, replays the journal

        reborn = reopen(path)
        dead = reborn.consume("dead")
        assert dead is not None, "dead letter lost in recovery"
        assert dead.payload == {"poison": True}
        assert dead.headers["dead_letter_reason"] == "max delivery attempts"
        assert dead.headers["origin_queue"] == "work"
        assert dead.headers["origin_message_id"] == origin_id
        # The origin queue is empty: the poison message moved, it did
        # not duplicate.
        assert reborn.queue("work").depth() == 0


class TestPropagatorDlqDurability:
    def test_exhausted_propagation_survives_crash(self, tmp_path, clock):
        path = str(tmp_path / "prop.wal")
        db = Database(path=path, clock=clock)
        broker = QueueBroker(db)
        broker.create_queue("outbox")
        propagator = Propagator(
            broker,
            "outbox",
            max_attempts=2,
            base_backoff=0.1,
            max_backoff=1.0,
            dead_letter_queue="dead",
        ).add_link(PropagationLink("svc", service=DownService()))
        origin_id = broker.publish("outbox", {"doomed": True})
        for _ in range(4):
            propagator.pump()
            clock.advance(2.0)
        assert propagator.stats["dead_lettered"] == 1
        db.simulate_crash()

        reborn = reopen(path)
        dead = reborn.consume("dead")
        assert dead is not None, "dead letter lost in recovery"
        assert dead.payload == {"doomed": True}
        assert "svc" in dead.headers["dead_letter_reason"]
        assert dead.headers["origin_queue"] == "outbox"
        assert dead.headers["origin_message_id"] == origin_id
        assert reborn.queue("outbox").depth() == 0
