"""CEP pattern matcher: sequences, Kleene, negation, WITHIN, selection."""

import pytest

from repro.cq import Kleene, PatternElement, PatternMatcher, Seq, Stream
from repro.errors import PatternError
from repro.events import Event
from repro.obs.metrics import MetricsRegistry


def run(pattern, events, *, selection="skip_till_next", prune=True,
        output_type="match"):
    source = Stream("s")
    matcher = PatternMatcher(
        source, pattern, output_type=output_type,
        selection=selection, prune_expired=prune,
    )
    matches = []
    matcher.subscribe(matches.append)
    for timestamp, payload in events:
        source.push(Event("tick", float(timestamp), payload))
    return matcher, matches


def ab_pattern(**kwargs):
    return Seq(
        PatternElement("a", "tick", "kind = 'A'"),
        PatternElement("b", "tick", "kind = 'B'"),
        **kwargs,
    )


class TestSequences:
    def test_simple_seq(self):
        _m, matches = run(ab_pattern(), [
            (1, {"kind": "A"}), (2, {"kind": "X"}), (3, {"kind": "B"}),
        ])
        assert len(matches) == 1
        assert matches[0]["a_timestamp"] == 1.0
        assert matches[0]["b_timestamp"] == 3.0

    def test_no_match_wrong_order(self):
        _m, matches = run(ab_pattern(), [(1, {"kind": "B"}), (2, {"kind": "A"})])
        assert matches == []

    def test_bindings_cross_reference(self):
        pattern = Seq(
            PatternElement("first", "tick", "price > 0"),
            PatternElement("second", "tick", "price > first_price * 2"),
        )
        _m, matches = run(pattern, [
            (1, {"price": 10}), (2, {"price": 15}), (3, {"price": 25}),
        ])
        assert len(matches) >= 1
        assert matches[0]["first_price"] == 10
        assert matches[0]["second_price"] == 25

    def test_composite_provenance(self):
        _m, matches = run(ab_pattern(), [(1, {"kind": "A"}), (2, {"kind": "B"})])
        assert len(matches[0].causes) == 2

    def test_single_element_pattern(self):
        pattern = Seq(PatternElement("only", "tick", "v > 5"))
        _m, matches = run(pattern, [(1, {"v": 1}), (2, {"v": 9})])
        assert len(matches) == 1

    def test_event_type_filter_in_element(self):
        pattern = Seq(
            PatternElement("o", "orders.*"),
            PatternElement("f", "fills.*"),
        )
        source = Stream("s")
        matcher = PatternMatcher(source, pattern, output_type="of")
        matches = []
        matcher.subscribe(matches.append)
        source.push(Event("orders.insert", 1.0, {}))
        source.push(Event("noise", 2.0, {}))
        source.push(Event("fills.insert", 3.0, {}))
        assert len(matches) == 1


class TestSelectionStrategies:
    EVENTS = [
        (1, {"kind": "A", "n": 1}),
        (2, {"kind": "B", "n": 2}),
        (3, {"kind": "B", "n": 3}),
    ]

    def test_skip_till_next_takes_first(self):
        _m, matches = run(ab_pattern(), self.EVENTS)
        assert [m["b_n"] for m in matches] == [2]

    def test_skip_till_any_explores_all(self):
        _m, matches = run(ab_pattern(), self.EVENTS, selection="skip_till_any")
        assert sorted(m["b_n"] for m in matches) == [2, 3]

    def test_strict_requires_contiguity(self):
        events = [
            (1, {"kind": "A"}), (2, {"kind": "X"}), (3, {"kind": "B"}),
            (4, {"kind": "A"}), (5, {"kind": "B"}),
        ]
        _m, matches = run(ab_pattern(), events, selection="strict")
        assert len(matches) == 1
        assert matches[0]["a_timestamp"] == 4.0

    def test_unknown_selection_rejected(self):
        with pytest.raises(PatternError):
            run(ab_pattern(), [], selection="bogus")


class TestKleene:
    def rising_pattern(self):
        return Seq(
            PatternElement("start", "tick", "price > 0"),
            Kleene("up", "tick", "up_price IS NULL OR price > up_price"),
            PatternElement("down", "tick", "price < up_price"),
        )

    def test_one_or_more(self):
        _m, matches = run(self.rising_pattern(), [
            (1, {"price": 10}), (2, {"price": 12}), (3, {"price": 15}),
            (4, {"price": 14}),
        ])
        best = max(matches, key=lambda m: m["up_count"])
        assert best["up_count"] == 2
        assert best["down_price"] == 14

    def test_zero_repetitions_do_not_match(self):
        _m, matches = run(self.rising_pattern(), [
            (1, {"price": 10}), (2, {"price": 5}),
        ])
        # 10 then 5: the Kleene never matched (needs one-or-more) — but
        # 10 itself can start and 5... up needs price > up_price with
        # up unbound -> matches via IS NULL guard. So check carefully:
        # start=10, up=5? guard: up_price IS NULL -> True, so up=5 binds.
        # down then needs price < 5 which never arrives: no full match.
        assert matches == []

    def test_kleene_final_emits_progressively(self):
        pattern = Seq(
            PatternElement("a", "tick", "kind = 'A'"),
            Kleene("more", "tick", "kind = 'B'"),
        )
        _m, matches = run(pattern, [
            (1, {"kind": "A"}), (2, {"kind": "B"}), (3, {"kind": "B"}),
        ])
        assert [m["more_count"] for m in matches] == [1, 2]


class TestNegation:
    def test_negation_blocks(self):
        pattern = Seq(
            PatternElement("a", "tick", "kind = 'A'"),
            PatternElement("nb", "tick", "kind = 'B'", negated=True),
            PatternElement("c", "tick", "kind = 'C'"),
        )
        _m, matches = run(pattern, [
            (1, {"kind": "A"}), (2, {"kind": "B"}), (3, {"kind": "C"}),
            (4, {"kind": "A"}), (5, {"kind": "C"}),
        ])
        assert len(matches) == 1
        assert matches[0]["a_timestamp"] == 4.0

    def test_negation_condition_uses_bindings(self):
        pattern = Seq(
            PatternElement("a", "tick", "v > 0"),
            PatternElement("blocker", "tick", "v = a_v", negated=True),
            PatternElement("c", "tick", "v > a_v * 10"),
        )
        events = [
            (1, {"v": 5}), (2, {"v": 5}), (3, {"v": 100}),
            (4, {"v": 7}), (5, {"v": 100}),
        ]
        _m, matches = run(pattern, events)
        # The run rooted at t=1 is blocked by the repeat at t=2; the run
        # rooted at t=2 itself sees no blocker before t=3 and matches,
        # as does the clean run rooted at t=4.
        assert [(m["a_timestamp"], m["a_v"]) for m in matches] == [
            (2.0, 5), (4.0, 7),
        ]

    def test_edge_negations_rejected(self):
        with pytest.raises(PatternError):
            Seq(PatternElement("a", "t", None, negated=True),
                PatternElement("b", "t"))
        with pytest.raises(PatternError):
            Seq(PatternElement("a", "t"),
                PatternElement("b", "t", None, negated=True))


class TestWithinAndPruning:
    def test_within_bounds_match_window(self):
        _m, matches = run(ab_pattern(within=5.0), [
            (1, {"kind": "A"}), (10, {"kind": "B"}),   # too far apart
            (20, {"kind": "A"}), (22, {"kind": "B"}),  # inside window
        ])
        assert len(matches) == 1
        assert matches[0]["a_timestamp"] == 20.0

    def test_pruning_bounds_run_state(self):
        events = [(float(i), {"kind": "A"}) for i in range(500)]
        events.append((1000.0, {"kind": "B"}))
        pruned, _ = run(ab_pattern(within=10.0), events, prune=True)
        unpruned, _ = run(ab_pattern(within=10.0), events, prune=False)
        assert pruned.active_runs < 20
        assert unpruned.stats["peak_runs"] >= 400
        assert pruned.stats["runs_pruned"] > 0

    def test_pruned_and_unpruned_agree_on_matches(self):
        events = []
        for i in range(50):
            events.append((float(2 * i), {"kind": "A"}))
            if i % 7 == 0:
                events.append((float(2 * i + 1), {"kind": "B"}))
        _p, matches_pruned = run(ab_pattern(within=10.0), events, prune=True)
        _u, matches_unpruned = run(ab_pattern(within=10.0), events, prune=False)
        key = lambda m: (m["a_timestamp"], m["b_timestamp"])
        assert sorted(map(key, matches_pruned)) == sorted(map(key, matches_unpruned))


class TestEmissionOrder:
    def test_matches_one_event_completes_emit_in_run_creation_order(self):
        pattern = Seq(
            PatternElement("a", "tick", "kind = 'A'"),
            PatternElement("b", "tick", "kind = 'B' AND id = a_id"),
            PatternElement("c", "tick", "kind = 'C' AND tag = a_tag"),
        )
        # The newer run reaches step c first; one C completes both.
        _m, matches = run(pattern, [
            (1, {"kind": "A", "id": 1, "tag": 7}),
            (2, {"kind": "A", "id": 2, "tag": 7}),
            (3, {"kind": "B", "id": 2}), (4, {"kind": "B", "id": 1}),
            (5, {"kind": "C", "tag": 7}),
        ])
        assert [m["a_id"] for m in matches] == [1, 2]


class TestRetractions:
    def test_retraction_is_refused_and_counted(self):
        """A retraction is neither forwarded onto the match stream nor
        folded in; the refusal is counted, locally and in the registry."""
        registry = MetricsRegistry()
        source = Stream("s")
        matcher = PatternMatcher(
            source, ab_pattern(), output_type="ab", name="p"
        ).bind_metrics(registry)
        out = []
        matcher.subscribe(out.append)
        a = Event("tick", 1.0, {"kind": "A"})
        source.push(a)
        source.push(a.to_retraction())
        source.push(Event("tick", 2.0, {"kind": "B"}))
        source.punctuate(5.0)  # punctuation still forwards
        assert [e.kind for e in out] == ["data", "punctuation"]
        assert out[0].event_type == "ab"
        assert matcher.unsupported_retractions == 1
        counters = registry.snapshot()["counters"]
        assert counters["cq.unsupported_retraction{stream=p}"] == 1


class TestValidation:
    def test_empty_pattern_rejected(self):
        with pytest.raises(PatternError):
            Seq()

    def test_duplicate_names_rejected(self):
        with pytest.raises(PatternError):
            Seq(PatternElement("x", "t"), PatternElement("x", "t"))

    def test_max_runs_caps_state(self):
        source = Stream("s")
        matcher = PatternMatcher(
            source, ab_pattern(), output_type="m", max_runs=10,
        )
        for i in range(100):
            source.push(Event("tick", float(i), {"kind": "A"}))
        assert matcher.active_runs <= 10
