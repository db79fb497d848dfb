"""Predicate index: anchoring, candidate soundness, interval trees."""

import random

import pytest

from repro.events import Event
from repro.rules import IntervalTree, PredicateIndex, Rule, RuleEngine
from repro.rules.index import Interval


class TestIntervalTree:
    def test_stab_basics(self):
        tree = IntervalTree()
        tree.insert(Interval(1.0, 5.0, True, True, "a"))
        tree.insert(Interval(3.0, 8.0, True, True, "b"))
        tree.insert(Interval(10.0, None, True, False, "c"))
        tree.rebuild()
        assert {i.rule_id for i in tree.stab(4)} == {"a", "b"}
        assert {i.rule_id for i in tree.stab(9)} == set()
        assert {i.rule_id for i in tree.stab(100)} == {"c"}

    def test_bound_inclusivity(self):
        tree = IntervalTree()
        tree.insert(Interval(1.0, 5.0, False, False, "open"))
        tree.insert(Interval(1.0, 5.0, True, True, "closed"))
        tree.rebuild()
        assert {i.rule_id for i in tree.stab(1.0)} == {"closed"}
        assert {i.rule_id for i in tree.stab(5.0)} == {"closed"}
        assert {i.rule_id for i in tree.stab(3.0)} == {"open", "closed"}

    def test_remove_via_tombstone(self):
        tree = IntervalTree()
        interval = Interval(1.0, 5.0, True, True, "a")
        tree.insert(interval)
        tree.rebuild()
        tree.remove(interval)
        assert tree.stab(3.0) == []
        assert len(tree) == 0

    def test_pending_inserts_visible_before_rebuild(self):
        tree = IntervalTree()
        tree.insert(Interval(1.0, 2.0, True, True, "a"))
        assert [i.rule_id for i in tree.stab(1.5)] == ["a"]

    def test_non_numeric_stab_empty(self):
        tree = IntervalTree()
        tree.insert(Interval(1.0, 2.0, True, True, "a"))
        assert tree.stab("text") == []
        assert tree.stab(True) == []
        assert tree.stab(None) == []

    def test_matches_linear_scan_randomized(self):
        rng = random.Random(3)
        tree = IntervalTree()
        intervals = []
        for i in range(300):
            low = rng.uniform(0, 100)
            high = low + rng.uniform(0, 20)
            interval = Interval(low, high, True, True, f"r{i}")
            intervals.append(interval)
            tree.insert(interval)
        # Random churn.
        for interval in rng.sample(intervals, 80):
            tree.remove(interval)
            intervals.remove(interval)
        for _ in range(50):
            probe = rng.uniform(-5, 110)
            expected = {i.rule_id for i in intervals if i.contains(probe)}
            actual = {i.rule_id for i in tree.stab(probe)}
            assert actual == expected

    def test_eager_mode_rebuilds_every_time(self):
        tree = IntervalTree(eager=True)
        for i in range(5):
            tree.insert(Interval(float(i), float(i + 1), True, True, f"r{i}"))
        assert tree.rebuilds == 5

    def test_lazy_mode_rebuilds_rarely(self):
        tree = IntervalTree(rebuild_fraction=0.5)
        for i in range(100):
            tree.insert(Interval(float(i), float(i + 1), True, True, f"r{i}"))
        assert tree.rebuilds < 20


class TestAnchoring:
    def test_equality_anchor_preferred(self):
        index = PredicateIndex()
        index.add(Rule.from_text("r", "price > 10 AND symbol = 'IBM'"))
        assert index.residual_count == 0
        # Candidate only when the symbol matches.
        assert len(index.candidates({"symbol": "IBM", "price": 50})) == 1
        assert index.candidates({"symbol": "HP", "price": 50}) == []

    def test_range_anchor(self):
        index = PredicateIndex()
        index.add(Rule.from_text("r", "price BETWEEN 10 AND 20"))
        assert [r.rule_id for r in index.candidates({"price": 15})] == ["r"]
        assert index.candidates({"price": 25}) == []

    def test_unanchorable_goes_residual(self):
        index = PredicateIndex()
        index.add(Rule.from_text("r", "a = 1 OR b = 2"))  # OR: no anchor
        assert index.residual_count == 1
        assert len(index.candidates({"x": 0})) == 1  # always a candidate

    def test_string_range_goes_residual(self):
        index = PredicateIndex()
        index.add(Rule.from_text("r", "name > 'm'"))
        assert index.residual_count == 1

    def test_remove_each_anchor_kind(self):
        index = PredicateIndex()
        index.add(Rule.from_text("eq", "a = 1"))
        index.add(Rule.from_text("rng", "b > 2"))
        index.add(Rule.from_text("res", "a = 1 OR b = 1"))
        for rule_id in ("eq", "rng", "res"):
            index.remove(rule_id)
        assert len(index) == 0
        assert index.candidates({"a": 1, "b": 5}) == []

    def test_missing_attribute_excludes_anchored_rule(self):
        index = PredicateIndex()
        index.add(Rule.from_text("r", "price > 10"))
        # Event without price: NULL comparison could never match.
        assert index.candidates({"qty": 5}) == []


class TestValueClasses:
    """Anchors probe the way ``compare_values`` compares, so indexed and
    naive evaluation agree on every value class."""

    @staticmethod
    def matched(mode, condition, value):
        engine = RuleEngine(mode=mode)
        engine.add("r", condition)
        event = Event("e", 0.0, {"v": value})
        return [m.rule.rule_id for m in engine.evaluate(event, run_actions=False)]

    @pytest.mark.parametrize("condition,value", [
        ("v > 5", "abc"),
        ("v > 0", True),
        ("v BETWEEN 0 AND 2", True),
        ("v > 5", [1, 2]),
    ])
    def test_range_anchor_admits_bool_and_non_numeric(self, condition, value):
        assert self.matched("indexed", condition, value) == ["r"]
        assert self.matched("naive", condition, value) == ["r"]

    @pytest.mark.parametrize("value", [[1, 2], {"a": 1}])
    def test_unhashable_value_probes_no_equality_bucket(self, value):
        assert self.matched("indexed", "v = 3", value) == []
        assert self.matched("naive", "v = 3", value) == []


class TestSoundnessAgainstNaive:
    def test_randomized_equivalence(self):
        """The indexed engine must agree exactly with brute force."""
        rng = random.Random(11)
        index = PredicateIndex()
        rules = []
        for i in range(500):
            kind = rng.randrange(4)
            if kind == 0:
                text = f"region = 'r{rng.randrange(20)}'"
            elif kind == 1:
                low = rng.randrange(90)
                text = f"price BETWEEN {low} AND {low + rng.randrange(1, 10)}"
            elif kind == 2:
                text = f"qty >= {rng.randrange(100)} AND region = 'r{rng.randrange(20)}'"
            else:
                text = f"price < {rng.randrange(100)} OR qty = {rng.randrange(100)}"
            rule = Rule.from_text(f"rule{i}", text)
            rules.append(rule)
            index.add(rule)

        from repro.rules.engine import EventContext

        for _ in range(100):
            context = EventContext(
                {
                    "region": f"r{rng.randrange(25)}",
                    "price": rng.uniform(0, 110),
                    "qty": rng.randrange(120),
                }
            )
            brute = {
                rule.rule_id
                for rule in rules
                if rule.compiled_condition(context)
            }
            candidates = index.candidates(context)
            indexed = {
                rule.rule_id
                for rule in candidates
                if rule.compiled_condition(context)
            }
            assert indexed == brute

    def test_candidate_set_much_smaller_than_rule_set(self):
        rng = random.Random(5)
        index = PredicateIndex()
        for i in range(2000):
            index.add(
                Rule.from_text(f"r{i}", f"region = 'r{rng.randrange(500)}'")
            )
        from repro.rules.engine import EventContext

        candidates = index.candidates(EventContext({"region": "r7"}))
        # ~2000/500 = 4 expected; anything near 2000 means no indexing.
        assert len(candidates) < 50
