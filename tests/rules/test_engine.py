"""Rule engine: evaluation modes, actions, internal data."""

import pytest

from repro.errors import RuleError, RuleNotFoundError
from repro.events import Event
from repro.queues import QueueBroker
from repro.rules import (
    ActionRegistry,
    CollectAction,
    EnqueueAction,
    NotifyAction,
    Rule,
    RuleEngine,
)


def tick(price=100.0, symbol="IBM", **extra):
    return Event("tick", 1.0, {"price": price, "symbol": symbol, **extra})


class TestEvaluation:
    def test_matching_rule_fires_action(self):
        engine = RuleEngine()
        collect = CollectAction()
        engine.add("hot", "price > 100", action=collect)
        engine.evaluate(tick(price=150))
        engine.evaluate(tick(price=50))
        assert len(collect) == 1
        assert collect.seen[0][0] == "hot"

    def test_event_type_filter(self):
        engine = RuleEngine()
        collect = CollectAction()
        engine.add("orders_only", "TRUE", action=collect, event_types=("orders.*",))
        engine.evaluate(tick())
        engine.evaluate(Event("orders.insert", 1.0, {}))
        assert len(collect) == 1

    def test_missing_attribute_is_null(self):
        engine = RuleEngine()
        matches = engine.evaluate(
            Event("tick", 1.0, {"price": 5}), run_actions=False
        )
        engine.add("needs_qty", "qty > 10")
        matches = engine.evaluate(tick(), run_actions=False)
        assert matches == []  # qty absent -> NULL -> no match

    def test_priority_orders_matches(self):
        engine = RuleEngine()
        order = []
        engine.add("low", "TRUE", action=lambda r, c: order.append("low"), priority=1)
        engine.add("high", "TRUE", action=lambda r, c: order.append("high"), priority=9)
        engine.evaluate(tick())
        assert order == ["high", "low"]

    def test_disabled_rule_skipped(self):
        engine = RuleEngine()
        collect = CollectAction()
        engine.add("r", "TRUE", action=collect)
        engine.set_enabled("r", False)
        engine.evaluate(tick())
        assert len(collect) == 0

    def test_duplicate_rule_id_rejected(self):
        engine = RuleEngine()
        engine.add("r", "TRUE")
        with pytest.raises(RuleError):
            engine.add("r", "TRUE")

    def test_remove_rule(self):
        engine = RuleEngine()
        engine.add("r", "TRUE")
        engine.remove_rule("r")
        assert engine.evaluate(tick(), run_actions=False) == []
        with pytest.raises(RuleNotFoundError):
            engine.remove_rule("r")

    def test_unknown_mode_rejected(self):
        with pytest.raises(RuleError):
            RuleEngine(mode="quantum")


class TestModesAgree:
    def test_indexed_evaluates_fewer_conditions(self):
        indexed = RuleEngine(mode="indexed")
        naive = RuleEngine(mode="naive")
        for i in range(200):
            for engine in (indexed, naive):
                engine.add(f"r{i}", f"symbol = 'S{i}'")
        event = Event("tick", 1.0, {"symbol": "S7"})
        m1 = indexed.evaluate(event, run_actions=False)
        m2 = naive.evaluate(event, run_actions=False)
        assert [m.rule.rule_id for m in m1] == [m.rule.rule_id for m in m2] == ["r7"]
        assert indexed.stats["conditions_evaluated"] < 10
        assert naive.stats["conditions_evaluated"] == 200


class TestInternalData:
    def test_evaluate_table(self, orders_db):
        engine = RuleEngine()
        engine.add("big", "qty >= 100")
        matches = engine.evaluate_table(orders_db, "orders")
        assert len(matches) == 2  # qty 100 and 200

    def test_evaluate_queue(self, db):
        broker = QueueBroker(db)
        broker.create_queue("q")
        broker.publish("q", {"sev": 1})
        broker.publish("q", {"sev": 5})
        engine = RuleEngine()
        engine.add("urgent", "sev >= 3")
        matches = engine.evaluate_queue(broker.queue("q"))
        assert len(matches) == 1
        assert matches[0].context["sev"] == 5


class TestActions:
    def test_registry(self):
        registry = ActionRegistry()
        action = CollectAction()
        registry.register("c", action)
        assert registry.get("c") is action
        with pytest.raises(RuleError):
            registry.register("c", action)
        with pytest.raises(RuleError):
            registry.get("ghost")

    def test_enqueue_action(self, db):
        broker = QueueBroker(db)
        broker.create_queue("alerts")
        engine = RuleEngine()
        engine.add(
            "hot", "price > 100",
            action=EnqueueAction(broker, "alerts", priority_key="price"),
        )
        engine.evaluate(tick(price=150))
        message = broker.consume("alerts")
        assert message.payload["rule_id"] == "hot"
        assert message.payload["context"]["price"] == 150
        assert message.priority == 150

    def test_notify_action(self):
        received = []
        action = NotifyAction(lambda rule, ctx: received.append(rule.rule_id))
        engine = RuleEngine()
        engine.add("r", "TRUE", action=action)
        engine.evaluate(tick())
        assert received == ["r"]

