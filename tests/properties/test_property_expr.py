"""Hypothesis property tests for expressions and the rule index."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.expr import expression_from_dict, expression_to_dict
from repro.db.sql.parser import parse_expression
from repro.rules import PredicateIndex, Rule
from repro.rules.engine import EventContext
from tests.reference.expr_oracle import evaluate_predicate


@st.composite
def condition_texts(draw):
    """Random rule conditions over columns a (int), b (float), c (str)."""
    clauses = draw(st.integers(1, 3))
    parts = []
    for _ in range(clauses):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            parts.append(f"a = {draw(st.integers(0, 20))}")
        elif kind == 1:
            low = draw(st.integers(0, 50))
            parts.append(f"b BETWEEN {low} AND {low + draw(st.integers(0, 30))}")
        elif kind == 2:
            parts.append(f"b {draw(st.sampled_from(['<', '<=', '>', '>=']))} "
                         f"{draw(st.integers(0, 80))}")
        elif kind == 3:
            parts.append(f"c = 'k{draw(st.integers(0, 8))}'")
        elif kind == 4:
            parts.append(f"a IN ({draw(st.integers(0, 9))}, "
                         f"{draw(st.integers(10, 20))})")
        else:
            parts.append("c IS NOT NULL")
    connector = draw(st.sampled_from([" AND ", " OR "]))
    return connector.join(parts)


# b and c also carry values of the "wrong" type (bool and text on the
# range-anchored b, ints on the equality-anchored c): the evaluator
# orders them through compare_values and the index must agree.
contexts = st.fixed_dictionaries(
    {
        "a": st.one_of(st.none(), st.integers(0, 25)),
        "b": st.one_of(
            st.none(),
            st.floats(0, 100, allow_nan=False),
            st.booleans(),
            st.sampled_from(["", "k1", "zz"]),
        ),
        "c": st.one_of(
            st.none(),
            st.sampled_from([f"k{i}" for i in range(10)]),
            st.integers(0, 9),
        ),
    }
)


class TestExpressionProperties:
    @given(condition_texts(), contexts)
    @settings(max_examples=200)
    def test_serialization_preserves_evaluation(self, text, row):
        original = parse_expression(text)
        restored = expression_from_dict(expression_to_dict(original))
        assert original.evaluate(row) == restored.evaluate(row)

    @given(condition_texts(), contexts)
    @settings(max_examples=200)
    def test_evaluation_is_three_valued(self, text, row):
        result = parse_expression(text).evaluate(row)
        assert result in (True, False, None)

    @given(condition_texts(), contexts)
    def test_double_negation_preserves_predicate(self, text, row):
        base = parse_expression(text)
        doubled = parse_expression(f"NOT (NOT ({text}))")
        assert base.evaluate(row) == doubled.evaluate(row)


class TestPredicateIndexProperties:
    @given(st.lists(condition_texts(), min_size=1, max_size=40), contexts)
    @settings(max_examples=100, deadline=None)
    def test_indexed_matches_equal_brute_force(self, texts, row):
        """The fundamental soundness+completeness property of EXP-4."""
        index = PredicateIndex()
        rules = []
        for i, text in enumerate(texts):
            rule = Rule.from_text(f"r{i}", text)
            rules.append(rule)
            index.add(rule)
        context = EventContext(row)
        brute = {
            rule.rule_id
            for rule in rules
            if evaluate_predicate(rule.condition, context)
        }
        via_index = {
            rule.rule_id
            for rule in index.candidates(context)
            if rule.compiled_condition(context)
        }
        assert via_index == brute

    @given(
        st.lists(condition_texts(), min_size=2, max_size=30),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_removal_is_complete(self, texts, data):
        index = PredicateIndex()
        rules = {}
        for i, text in enumerate(texts):
            rule = Rule.from_text(f"r{i}", text)
            rules[rule.rule_id] = rule
            index.add(rule)
        victims = data.draw(
            st.lists(st.sampled_from(sorted(rules)), unique=True, max_size=10)
        )
        for rule_id in victims:
            index.remove(rule_id)
        context = EventContext({"a": 5, "b": 25.0, "c": "k3"})
        candidate_ids = {rule.rule_id for rule in index.candidates(context)}
        assert candidate_ids.isdisjoint(victims)
