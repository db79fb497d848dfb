"""Compiled rule evaluation, recompilation on churn, and the memoized
referenced-column sets the predicate index reuses."""

import pytest

from repro.db.sql.parser import parse_expression
from repro.errors import ExpressionError
from repro.events import Event
from repro.rules import PredicateIndex, Rule, RuleEngine
from repro.rules.engine import event_context
from tests.reference.expr_oracle import evaluate_predicate


def _event(payload, event_type="tick"):
    return Event(event_type, 1.0, payload)


class TestEngineAgreesWithOracle:
    CONDITIONS = [
        ("eq", "region = 'emea' AND qty > 10"),
        ("range", "price BETWEEN 5 AND 10"),
        ("disj", "qty = 3 OR price < 1"),
        ("null", "missing_attr IS NULL"),
        ("like", "region LIKE 'e%'"),
    ]

    EVENTS = [
        {"region": "emea", "qty": 20, "price": 7.5},
        {"region": "apac", "qty": 2, "price": 0.5},
        {"qty": 3},  # absent attributes read as NULL
        {},
        {"region": "emea", "qty": 10, "price": 100.0},
    ]

    @pytest.mark.parametrize("mode", ["indexed", "naive"])
    def test_match_sets_equal_the_oracle(self, mode):
        engine = RuleEngine(mode=mode)
        rules = [engine.add(rule_id, text) for rule_id, text in self.CONDITIONS]
        for payload in self.EVENTS:
            event = _event(payload)
            matched = {
                m.rule.rule_id for m in engine.evaluate(event, run_actions=False)
            }
            context = event_context(event)
            assert matched == {
                rule.rule_id
                for rule in rules
                if evaluate_predicate(rule.condition, context)
            }
        if mode == "naive":
            # Naive mode evaluates every rule for every event.
            assert engine.stats["conditions_evaluated"] == len(rules) * len(
                self.EVENTS
            )

    def test_event_context_absent_attributes_are_null(self):
        engine = RuleEngine()
        engine.add("r", "qty > 5")
        # qty absent -> NULL -> UNKNOWN -> no match (not a KeyError).
        assert engine.evaluate(_event({"price": 1}), run_actions=False) == []
        assert len(engine.evaluate(_event({"qty": 6}), run_actions=False)) == 1


class TestRecompileOnChurn:
    def test_registration_compiles_eagerly(self):
        engine = RuleEngine()
        rule = engine.add("r", "qty > 5")
        assert rule._compiled_condition is not None

    def test_replacing_a_rule_recompiles_its_condition(self):
        engine = RuleEngine()
        engine.add("r", "qty > 5")
        assert engine.evaluate(_event({"qty": 6}), run_actions=False)
        engine.remove_rule("r")
        engine.add("r", "qty > 100")
        # The new condition (a fresh tree) is what evaluates now.
        assert engine.evaluate(_event({"qty": 6}), run_actions=False) == []
        assert len(engine.evaluate(_event({"qty": 101}), run_actions=False)) == 1

    def test_recompile_after_condition_swap(self):
        rule = Rule.from_text("r", "qty > 5")
        old = rule.compiled_condition
        rule.condition = parse_expression("qty > 50")
        fresh = rule.recompile()
        assert fresh is not old
        assert fresh({"qty": 10}) is False
        assert fresh({"qty": 51}) is True


class TestErrorsSurfaceAtEvaluation:
    """Regression: ``5 % 0`` used to raise a raw ZeroDivisionError while
    the constant was folded, i.e. from registration."""

    def test_constant_modulo_by_zero_registers_and_raises_when_evaluated(self):
        rule = Rule(rule_id="r", condition="5 % 0 = 1")
        condition = rule.compiled_condition
        with pytest.raises(ExpressionError, match="division by zero"):
            condition({})
        for mode in ("indexed", "naive"):
            engine = RuleEngine(mode=mode)
            engine.add("r", "5 % 0 = 1")
            with pytest.raises(ExpressionError, match="division by zero"):
                engine.evaluate(_event({"qty": 1}), run_actions=False)


class TestReferencedColumnsMemo:
    def test_memoized_and_frozen(self):
        expression = parse_expression("a > 1 AND b = 'x' OR c IS NULL")
        first = expression.referenced_columns()
        assert first == frozenset({"a", "b", "c"})
        assert isinstance(first, frozenset)
        # Memoized: the same object comes back, no re-walk.
        assert expression.referenced_columns() is first

    def test_shared_subtree_memo_is_not_corrupted(self):
        """Regression: collecting a parent's columns must not pollute a
        shared child's memo with the parent's other columns."""
        child = parse_expression("a > 1")
        assert child.referenced_columns() == frozenset({"a"})
        from repro.db.expr import BinaryOp

        parent = BinaryOp("AND", child, parse_expression("b < 2"))
        assert parent.referenced_columns() == frozenset({"a", "b"})
        # The shared child still reports only its own columns.
        assert child.referenced_columns() == frozenset({"a"})

    def test_index_captures_columns_at_registration(self):
        index = PredicateIndex()
        rule = Rule.from_text("r", "region = 'emea' AND qty > 2")
        index.add(rule)
        assert index.referenced_columns("r") == frozenset({"region", "qty"})
        index.remove("r")
        assert index.referenced_columns("r") == frozenset()


class TestConstantConditionRules:
    def test_always_true_rule_is_a_permanent_candidate(self):
        index = PredicateIndex()
        index.add(Rule.from_text("t", "1 = 1"))
        assert [r.rule_id for r in index.candidates({})] == ["t"]
        assert [r.rule_id for r in index.candidates({"x": 5})] == ["t"]

    def test_always_false_rule_is_never_a_candidate(self):
        index = PredicateIndex()
        index.add(Rule.from_text("f", "1 = 2"))
        assert index.candidates({}) == []
        assert index.candidates({"x": 5}) == []

    def test_constant_rules_agree_with_naive_evaluation(self):
        for text in ("1 = 1", "1 = 2", "NULL = 1"):
            indexed = RuleEngine(mode="indexed")
            naive = RuleEngine(mode="naive")
            indexed.add("r", text)
            naive.add("r", text)
            for payload in ({}, {"x": 1}):
                a = {
                    m.rule.rule_id
                    for m in indexed.evaluate(_event(payload), run_actions=False)
                }
                b = {
                    m.rule.rule_id
                    for m in naive.evaluate(_event(payload), run_actions=False)
                }
                assert a == b

    def test_constant_rule_removal(self):
        index = PredicateIndex()
        index.add(Rule.from_text("t", "2 = 2"))
        index.remove("t")
        assert index.candidates({}) == []
        assert len(index) == 0
