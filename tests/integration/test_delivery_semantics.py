"""Delivery-guarantee semantics across failures and restarts."""

import pytest

from repro.db import Database
from repro.pubsub import PubSubBroker
from repro.queues import (
    Message,
    PropagationLink,
    Propagator,
    QueueBroker,
)


class CrashingService:
    """Accepts deliveries but lets tests 'crash' the propagator between
    send and ack."""

    def __init__(self) -> None:
        self.received: list[Message] = []

    def deliver(self, message: Message) -> None:
        self.received.append(message)


class TestAtLeastOnce:
    def test_restart_after_send_before_ack_redelivers(self, db, clock):
        """Propagation is at-least-once: a crash after the destination
        accepted but before the source ack yields a duplicate, which the
        destination can deduplicate via origin_message_id."""
        source = QueueBroker(db)
        source.create_queue("outbox")
        service = CrashingService()
        message_id = source.publish("outbox", {"n": 1})

        # First propagator: delivers to the service...
        propagator = Propagator(source, "outbox").add_link(
            PropagationLink("svc", service=service)
        )
        message = source.consume("outbox", principal="propagator")
        for link in propagator.links:
            link.send(message)
        # ...and "crashes" here: no ack, in-memory dedup state lost.
        source.queue("outbox").recover_locked()

        # A fresh propagator (post-restart) forwards again.
        restarted = Propagator(source, "outbox").add_link(
            PropagationLink("svc", service=service)
        )
        assert restarted.pump() == 1

        # Duplicate delivered — at-least-once, not exactly-once...
        assert len(service.received) == 2
        # ...but both copies carry the same origin id for dedup.
        origin_ids = {
            m.headers["origin_message_id"] for m in service.received
        }
        assert origin_ids == {message_id}

    def test_destination_dedup_by_origin_id(self, db, clock):
        """End-to-end exactly-once effect: destination suppresses
        duplicates keyed by (origin queue, origin message id)."""
        source = QueueBroker(db)
        source.create_queue("outbox")
        destination = QueueBroker(Database(clock=clock), name="dest")
        destination.create_queue("inbox")
        seen: set = set()
        applied: list = []

        def consume_with_dedup():
            while True:
                message = destination.consume("inbox")
                if message is None:
                    return
                key = (
                    message.headers.get("propagated_from"),
                    message.headers.get("origin_message_id"),
                )
                if key not in seen:
                    seen.add(key)
                    applied.append(message.payload)
                destination.ack("inbox", message.message_id)

        source.publish("outbox", {"n": 1})
        propagator = Propagator(source, "outbox").add_link(
            PropagationLink("d", broker=destination, queue_name="inbox")
        )
        # Simulate the duplicate: deliver twice by resetting dedup state.
        message = source.consume("outbox", principal="propagator")
        propagator.links[0].send(message)
        propagator.links[0].send(message)
        source.ack("outbox", message.message_id, principal="propagator")

        consume_with_dedup()
        assert applied == [{"n": 1}]


class TestDurableSubscriptionSemantics:
    def test_subscriber_offline_misses_nothing(self, db):
        broker = PubSubBroker(db)
        broker.create_topic("t")
        broker.subscribe("app", "t", durable=True)
        from repro.events import Event

        for i in range(5):
            broker.publish("t", Event("e", float(i), {"n": i}))
        # Subscriber attaches late: full backlog replays in order.
        received = []
        broker.attach_listener("app", received.append)
        assert [e["n"] for e in received] == [0, 1, 2, 3, 4]

    def test_nondurable_subscriber_misses_while_detached(self, db):
        broker = PubSubBroker(db)
        broker.create_topic("t")
        from repro.events import Event

        early = Event("e", 0.0, {"n": 0})
        broker.publish("t", early)  # nobody listening
        received = []
        broker.subscribe("app", "t", callback=received.append)
        broker.publish("t", Event("e", 1.0, {"n": 1}))
        assert [e["n"] for e in received] == [1]
