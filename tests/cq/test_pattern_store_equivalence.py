"""The indexed run store against the scan-every-run reference.

Seeded correlated streams with disordered timestamps; the correlation
attribute ``sym`` takes values from every class the store folds or
refuses to fold (``1``, ``1.0`` and ``True`` are one SQL value, ``[1]``
is unhashable, ``None`` is NULL), is sometimes absent, and some
payloads carry a binding name (``a_sym`` / ``b_sym``) that shadows the
runs' own.  For every pattern, selection strategy and pruning arm the
multiset of match payloads emitted per input event and all five
``stats`` must equal the reference's.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.cq import Kleene, PatternElement, PatternMatcher, Seq, Stream
from repro.events import Event
from tests.reference.pattern_scan import ScanPatternMatcher

SYMBOLS = (1, 1.0, True, 2, "x", None, [1])
EVENTS = 150
WITHIN = 6.0
SEEDS = (11, 12, 13)
SELECTIONS = ("strict", "skip_till_next", "skip_till_any")


def correlated_stream(seed: int) -> list[Event]:
    rng = random.Random(seed)
    events = []
    for i in range(EVENTS):
        payload = {"i": i, "v": rng.randrange(10), "alt": rng.randrange(3)}
        if rng.random() < 0.9:
            payload["sym"] = rng.choice(SYMBOLS)
        if rng.random() < 0.05:
            payload[rng.choice(("a_sym", "b_sym"))] = rng.choice(SYMBOLS)
        events.append(Event("tick", i + rng.uniform(-3.0, 3.0), payload))
    return events


def patterns() -> dict[str, tuple[Seq, list]]:
    """Each pattern with the correlation key the store should find per
    step (outside ``strict``)."""
    same = ("sym", "a_sym")
    return {
        "SEQ2": (
            Seq(
                PatternElement("a", "tick", "v >= 5"),
                PatternElement("b", "tick", "sym = a_sym AND v > a_v"),
                within=WITHIN,
            ),
            [None, same],
        ),
        "SEQ3": (
            Seq(
                PatternElement("a", "tick", "v >= 4"),
                PatternElement("b", "tick", "a_sym = sym AND v > a_v"),
                PatternElement("c", "tick", "sym = b_sym AND v < b_v"),
                within=WITHIN,
            ),
            [None, same, ("sym", "b_sym")],
        ),
        "SEQ+same-key guard": (
            Seq(
                PatternElement("a", "tick", "v >= 5"),
                PatternElement("n", "tick", "sym = a_sym AND v = 0", negated=True),
                PatternElement("b", "tick", "sym = a_sym AND v > a_v"),
                within=WITHIN,
            ),
            [None, same],
        ),
        "SEQ+different-key guard": (
            Seq(
                PatternElement("a", "tick", "v >= 5"),
                PatternElement("n", "tick", "alt = a_alt AND v = 0", negated=True),
                PatternElement("b", "tick", "sym = a_sym AND v > a_v"),
                within=WITHIN,
            ),
            [None, None],
        ),
        "KLEENE": (
            Seq(
                PatternElement("a", "tick", "v >= 5"),
                Kleene("up", "tick", "sym = a_sym AND (up_v IS NULL OR v > up_v)"),
                PatternElement("b", "tick", "sym = a_sym AND v < up_v"),
                within=WITHIN,
            ),
            [None, same, same],
        ),
        # The next step can consume any event, so the Kleene step cannot
        # be keyed although its own condition is.
        "KLEENE, unkeyed next": (
            Seq(
                PatternElement("a", "tick", "v >= 5"),
                Kleene("up", "tick", "sym = a_sym AND (up_v IS NULL OR v > up_v)"),
                PatternElement("b", "tick", "v < up_v"),
                within=WITHIN,
            ),
            [None, None, None],
        ),
    }


def drive(matcher_class, pattern, events, **options):
    source = Stream("ticks")
    matcher = matcher_class(source, pattern, output_type="m", **options)
    per_event: list[list[str]] = []
    matcher.subscribe(
        lambda match: per_event[-1].append(repr(sorted(match.payload.items())))
    )
    for event in events:
        per_event.append([])
        source.push(event)
    return [Counter(emitted) for emitted in per_event], matcher


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("prune", (True, False), ids=("prune", "no-prune"))
@pytest.mark.parametrize("selection", SELECTIONS)
@pytest.mark.parametrize("name", list(patterns()))
def test_store_equals_scan(name, selection, prune, seed):
    pattern, expected_keys = patterns()[name]
    events = correlated_stream(seed)
    options = {"selection": selection, "prune_expired": prune}
    got, matcher = drive(PatternMatcher, pattern, events, **options)
    want, reference = drive(ScanPatternMatcher, pattern, events, **options)
    assert matcher._keys == (
        [None] * len(expected_keys) if selection == "strict" else expected_keys
    )
    assert got == want
    assert matcher.stats == reference.stats
    assert matcher.active_runs == reference.active_runs


@pytest.mark.parametrize("seed", SEEDS)
def test_max_runs_drops_the_newest_runs(seed):
    """SEQ2 under skip-till-next never forks, so creation order is the
    scan's list order and both stores keep the same runs."""
    pattern, _keys = patterns()["SEQ2"]
    events = correlated_stream(seed)
    options = {"max_runs": 4, "prune_expired": False}
    got, matcher = drive(PatternMatcher, pattern, events, **options)
    want, reference = drive(ScanPatternMatcher, pattern, events, **options)
    assert got == want
    assert matcher.stats == reference.stats
    assert matcher.stats["peak_runs"] == 4
