"""Pub/sub broker: subscriptions, durability, activation, retained."""

import pytest

from repro.errors import ExpressionError, PubSubError, TopicNotFoundError
from repro.events import Event
from repro.pubsub import PubSubBroker
from repro.rules.rule import pattern_matches


def alert(severity=1, **extra):
    return Event("alert", 1.0, {"severity": severity, **extra})


def filtered_out(broker):
    return broker.db.obs.counter("pubsub.filtered_out", broker=broker.name).value


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
        assert pattern_matches(pattern, topic) is expected


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
        assert filtered_out(broker) == 1

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


def tick(price=100.0, symbol="IBM", **extra):
    return Event("tick", 1.0, {"price": price, "symbol": symbol, **extra})


@pytest.fixture
def ticks(db):
    broker = PubSubBroker(db)
    broker.create_topic("ticks")
    return broker


class TestSubscribeToPublish:
    """Publish/subscribe and subscribe-to-publish (§2.2.c.i.1), answered
    from the same predicate index."""

    def test_content_based_delivery(self, ticks):
        inbox_a, inbox_b = [], []
        ticks.subscribe("a", "ticks", content_filter="symbol = 'IBM'",
                        callback=inbox_a.append)
        ticks.subscribe("b", "ticks", content_filter="price > 1000",
                        callback=inbox_b.append)
        assert ticks.publish("ticks", tick(price=50)) == 1
        assert len(inbox_a) == 1 and inbox_b == []

    def test_duplicate_subscriber_rejected(self, ticks):
        ticks.subscribe("a", "ticks", callback=lambda e: None)
        with pytest.raises(PubSubError):
            ticks.subscribe("a", "ticks", callback=lambda e: None)

    def test_unsubscribe_stops_delivery(self, ticks):
        inbox = []
        ticks.subscribe("a", "ticks", content_filter="price > 10",
                        callback=inbox.append)
        ticks.unsubscribe("a")
        assert ticks.interested_consumers("ticks", tick()) == []
        assert ticks.publish("ticks", tick()) == 0
        assert inbox == []

    def test_interested_consumers_no_delivery(self, ticks):
        inbox = []
        ticks.subscribe("a", "ticks", content_filter="price > 10",
                        callback=inbox.append)
        assert ticks.interested_consumers("ticks", tick(price=20)) == ["a"]
        assert ticks.interested_consumers("ticks", tick(price=5)) == []
        assert inbox == []

    def test_publish_lazy_skips_build_when_no_interest(self, ticks, db):
        ticks.subscribe("a", "ticks", content_filter="price > 1000",
                        callback=lambda e: None)

        def exploding_build():
            raise AssertionError("should not be built")

        assert ticks.publish_lazy("ticks", tick(price=5), exploding_build) == 0
        assert db.obs.counter("pubsub.suppressed", broker="pubsub").value == 1
        assert ticks.stats["published"] == 0

    def test_publish_lazy_builds_when_interested(self, ticks):
        inbox = []
        ticks.subscribe("a", "ticks", content_filter="price > 10",
                        callback=inbox.append)
        delivered = ticks.publish_lazy(
            "ticks", tick(price=50), lambda: tick(price=50, heavy="blob")
        )
        assert delivered == 1
        assert inbox[0]["heavy"] == "blob"

    def test_delivery_counters(self, ticks, db):
        ticks.subscribe("a", "ticks", callback=lambda e: None)
        ticks.subscribe("b", "ticks", content_filter="price > 1000",
                        callback=lambda e: None)
        ticks.publish("ticks", tick())
        ticks.publish("ticks", tick())
        assert ticks.stats == {"published": 2, "delivered": 2, "spooled": 0}
        assert filtered_out(ticks) == 2
        assert db.obs.counter("pubsub.suppressed", broker="pubsub").value == 0


class TestDeliveryOrder:
    def test_registration_order_across_anchor_kinds(self, ticks):
        order = []
        for name, condition in [
            ("range", "price > 10"),
            ("everything", None),
            ("equality", "symbol = 'IBM'"),
            ("residual", "price > 10 OR symbol = 'X'"),
        ]:
            ticks.subscribe(name, "ticks", content_filter=condition,
                            callback=lambda e, name=name: order.append(name))
        ticks.publish("ticks", tick())
        assert order == ["range", "everything", "equality", "residual"]

    def test_resubscribing_moves_to_the_end(self, ticks):
        order = []
        for name in ("a", "b", "c"):
            ticks.subscribe(name, "ticks",
                            callback=lambda e, name=name: order.append(name))
        ticks.unsubscribe("a")
        ticks.subscribe("a", "ticks", callback=lambda e: order.append("a"))
        ticks.publish("ticks", tick())
        assert order == ["b", "c", "a"]

    def test_topic_attribute_stays_the_payloads(self, ticks):
        inbox = []
        ticks.subscribe("s", "ticks", content_filter="topic = 'other'",
                        callback=inbox.append)
        ticks.publish("ticks", tick(topic="ticks"))
        ticks.publish("ticks", tick(topic="other"))
        assert [e["topic"] for e in inbox] == ["other"]

    def test_topic_created_after_glob_subscription(self, ticks):
        inbox = []
        ticks.subscribe("s", "metrics.*", content_filter="v > 1",
                        callback=inbox.append)
        ticks.create_topic("metrics.cpu")
        ticks.publish("metrics.cpu", Event("m", 1.0, {"v": 0}))
        ticks.publish("metrics.cpu", Event("m", 1.0, {"v": 2}))
        assert [e["v"] for e in inbox] == [2]
