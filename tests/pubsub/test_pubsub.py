"""Pub/sub broker: subscriptions, durability, activation, retained."""

import pytest

from repro.errors import ExpressionError, PubSubError, TopicNotFoundError
from repro.events import Event
from repro.pubsub import PubSubBroker
from repro.pubsub.topic import topic_matches


def alert(severity=1, **extra):
    return Event("alert", 1.0, {"severity": severity, **extra})


@pytest.fixture
def broker(db):
    broker = PubSubBroker(db)
    broker.create_topic("alerts")
    return broker


class TestTopics:
    def test_duplicate_rejected(self, broker):
        with pytest.raises(PubSubError):
            broker.create_topic("alerts")

    def test_unknown_rejected(self, broker):
        with pytest.raises(TopicNotFoundError):
            broker.publish("ghost", alert())

    @pytest.mark.parametrize("pattern,topic,expected", [
        ("alerts", "alerts", True),
        ("*", "anything", True),
        ("metrics.*", "metrics.cpu", True),
        ("metrics.*", "alerts", False),
        ("alerts", "alerts.sub", False),
    ])
    def test_pattern_matching(self, pattern, topic, expected):
        assert topic_matches(pattern, topic) is expected


class TestNondurable:
    def test_callback_delivery(self, broker):
        inbox = []
        broker.subscribe("s", "alerts", callback=inbox.append)
        assert broker.publish("alerts", alert()) == 1
        assert len(inbox) == 1

    def test_needs_callback(self, broker):
        with pytest.raises(PubSubError):
            broker.subscribe("s", "alerts")

    def test_content_filter(self, broker):
        inbox = []
        broker.subscribe("s", "alerts", callback=inbox.append,
                         content_filter="severity >= 3")
        broker.publish("alerts", alert(severity=1))
        broker.publish("alerts", alert(severity=5))
        assert len(inbox) == 1
        assert broker.subscription("s").filtered_out == 1

    def test_filter_that_cannot_be_evaluated_registers_then_raises(self, broker):
        """Regression: a constant ``5 % 0`` raised a raw
        ZeroDivisionError out of the compiler."""
        broker.subscribe("s", "alerts", callback=lambda event: None,
                         content_filter="5 % 0 = 1")
        with pytest.raises(ExpressionError, match="division by zero"):
            broker.publish("alerts", alert())

    def test_wildcard_topic_subscription(self, broker, db):
        broker.create_topic("metrics.cpu")
        inbox = []
        broker.subscribe("s", "*", callback=inbox.append)
        broker.publish("alerts", alert())
        broker.publish("metrics.cpu", Event("m", 1.0, {}))
        assert len(inbox) == 2

    def test_unsubscribe(self, broker):
        inbox = []
        broker.subscribe("s", "alerts", callback=inbox.append)
        broker.unsubscribe("s")
        broker.publish("alerts", alert())
        assert inbox == []
        with pytest.raises(PubSubError):
            broker.unsubscribe("s")


class TestDurable:
    def test_spooled_until_fetched(self, broker):
        broker.subscribe("archive", "alerts", durable=True)
        broker.publish("alerts", alert(severity=7))
        assert broker.backlog("archive") == 1
        event = broker.fetch("archive")
        assert event["severity"] == 7
        assert broker.backlog("archive") == 0
        assert broker.fetch("archive") is None

    def test_survives_crash(self, broker, db):
        broker.subscribe("archive", "alerts", durable=True)
        broker.publish("alerts", alert(severity=9))
        db.simulate_crash()
        # Re-wire the broker over the recovered database.
        recovered = PubSubBroker(db)
        recovered.create_topic("alerts")
        subscription = recovered.subscribe("archive", "alerts", durable=True)
        assert recovered.backlog("archive") == 1
        assert recovered.fetch("archive")["severity"] == 9

    def test_listener_activation_drains_backlog(self, broker):
        broker.subscribe("app", "alerts", durable=True)
        broker.publish("alerts", alert(severity=1))
        broker.publish("alerts", alert(severity=2))
        received = []
        replayed = broker.attach_listener("app", received.append)
        assert replayed == 2
        broker.publish("alerts", alert(severity=3))
        assert [e["severity"] for e in received] == [1, 2, 3]

    def test_detach_stops_inline_delivery(self, broker):
        broker.subscribe("app", "alerts", durable=True)
        received = []
        broker.attach_listener("app", received.append)
        broker.detach_listener("app")
        broker.publish("alerts", alert())
        assert received == []
        assert broker.backlog("app") == 1

    def test_failing_listener_keeps_message(self, broker):
        broker.subscribe("app", "alerts", durable=True)

        def explode(event):
            raise RuntimeError("handler crash")

        broker.publish("alerts", alert())
        with pytest.raises(RuntimeError):
            broker.attach_listener("app", explode)
        broker.detach_listener("app")
        assert broker.backlog("app") == 1  # requeued, not lost

    def test_fetch_on_nondurable_rejected(self, broker):
        broker.subscribe("s", "alerts", callback=lambda e: None)
        with pytest.raises(PubSubError):
            broker.fetch("s")


class TestRetained:
    def test_late_subscriber_gets_retained(self, db):
        broker = PubSubBroker(db)
        broker.create_topic("state", retain=True)
        broker.publish("state", Event("s", 1.0, {"v": 1}))
        broker.publish("state", Event("s", 2.0, {"v": 2}))
        inbox = []
        broker.subscribe("late", "state", callback=inbox.append)
        assert [e["v"] for e in inbox] == [2]  # only the latest

    def test_retained_respects_filter(self, db):
        broker = PubSubBroker(db)
        broker.create_topic("state", retain=True)
        broker.publish("state", Event("s", 1.0, {"v": 1}))
        inbox = []
        broker.subscribe("late", "state", callback=inbox.append,
                         content_filter="v > 100")
        assert inbox == []

    def test_unretained_topic_gives_nothing(self, broker):
        broker.publish("alerts", alert())
        inbox = []
        broker.subscribe("late", "alerts", callback=inbox.append)
        assert inbox == []
