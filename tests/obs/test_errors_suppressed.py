"""Every former silent-swallow site must account for what it suppresses.

One test per boundary: the exception is counted under the stage label,
the most recent exception object is retained, and the pipeline keeps
its existing behaviour (requeue, retry, best-effort teardown).
"""

import pytest

from repro.capture.notification_capture import QueryNotificationCapture
from repro.capture.trigger_capture import TriggerCapture
from repro.errors import FaultInjectedError
from repro.events import Event
from repro.faults import (
    CAPTURE_DROP_TRIGGER,
    DELIVERY_CONSUMER,
    PUBSUB_CONSUMER,
    FaultInjector,
    raise_fault,
)
from repro.pubsub.broker import PubSubBroker
from repro.pubsub.delivery import DeliveryManager
from repro.queues import Message, QueueBroker


@pytest.fixture
def faulty_db(db):
    db.faults = FaultInjector()
    return db


class TestPubSubDrain:
    def test_raising_listener_counted_and_message_kept(self, faulty_db):
        pubsub = PubSubBroker(faulty_db)
        pubsub.create_topic("alerts")
        pubsub.subscribe("app", "alerts", durable=True)
        pubsub.publish(
            "alerts",
            Event(event_type="alert", timestamp=1.0, payload={"n": 1}),
        )
        faulty_db.faults.arm(PUBSUB_CONSUMER, raise_fault("listener crash"))
        with pytest.raises(FaultInjectedError):
            pubsub.attach_listener("app", lambda event: None)
        # Counted under the stage label with the exception retained...
        assert faulty_db.obs.errors_suppressed("pubsub.drain") == 1
        assert isinstance(
            faulty_db.obs.last_error("pubsub.drain"), FaultInjectedError
        )
        # ...and the activation contract is unchanged: the message was
        # requeued, not lost.
        assert pubsub.backlog("app") == 1


class TestDeliveryProcess:
    def test_consumer_error_counted_before_nack(self, db):
        db.faults = FaultInjector()
        broker = QueueBroker(db)
        broker.create_queue("jobs")
        broker.publish("jobs", Message(payload={"job": 1}))
        delivery = DeliveryManager(broker, "jobs", max_attempts=3)
        db.faults.arm(
            DELIVERY_CONSUMER, raise_fault("consumer crash"), max_fires=1
        )
        assert delivery.process_batch(lambda message: None, batch=1) == 0
        assert delivery.stats["consumer_errors"] == 1
        assert db.obs.errors_suppressed("delivery.process_batch") == 1
        assert isinstance(
            db.obs.last_error("delivery.process_batch"), FaultInjectedError
        )
        # The message survives for a later retry.
        assert delivery.process_batch(lambda message: None) == 1


class TestCaptureTeardown:
    def test_trigger_capture_close_failures_counted(self, orders_db):
        orders_db.faults = FaultInjector()
        capture = TriggerCapture(orders_db, ["orders"])
        orders_db.faults.arm(CAPTURE_DROP_TRIGGER, raise_fault("drop failed"))
        capture.close()  # must not raise
        # One suppressed failure per trigger (insert/update/delete).
        assert orders_db.obs.errors_suppressed("capture.trigger.close") == 3
        assert isinstance(
            orders_db.obs.last_error("capture.trigger.close"),
            FaultInjectedError,
        )

    def test_notification_capture_close_failures_counted(self, orders_db):
        orders_db.faults = FaultInjector()
        capture = QueryNotificationCapture(
            orders_db, "SELECT * FROM orders WHERE price > 50"
        )
        orders_db.faults.arm(CAPTURE_DROP_TRIGGER, raise_fault("drop failed"))
        capture.close()  # must not raise
        assert orders_db.obs.errors_suppressed("capture.notification.close") == 3
        assert isinstance(
            orders_db.obs.last_error("capture.notification.close"),
            FaultInjectedError,
        )
