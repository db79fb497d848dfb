"""EXP-4 — Large rule sets: indexed vs naive evaluation (§2.2.c.iv.2.a).

Claim: with a predicate index, per-event evaluation cost depends on the
number of *matching* rules, not *registered* rules; naive evaluation is
linear in the rule-set size.  Expected shape: naive time/event grows
~linearly with R while indexed stays near-flat, with the crossover at
small R (index bookkeeping only wins once R exceeds a few dozen).

Rules follow a subscription-like workload: equality on one of 200
regions, narrow numeric ranges on price, and a residual tail that no
anchor can cover.

Run standalone:  python benchmarks/bench_exp4_rule_scale.py
"""

from __future__ import annotations

import gc
import random
import time

import pytest

try:
    from benchmarks.reporting import print_table
except ImportError:
    from reporting import print_table

from repro.events import Event
from repro.rules import RuleEngine

RULE_COUNTS = (100, 1_000, 10_000, 50_000)
EVENTS_PER_POINT = 300


def _regions(count: int) -> int:
    # Subscription populations grow more *specific* as they grow large:
    # keep the expected number of matching rules per event ~constant by
    # scaling the region vocabulary and narrowing the ranges with R.
    return max(50, count // 10)


def rule_text(i: int, count: int, rng: random.Random) -> str:
    if i < 20:  # a small fixed residual set (OR defeats anchoring)
        return f"qty = {rng.randrange(1000)} OR price < {rng.uniform(0, 2):.3f}"
    if i % 3:  # ~2/3: equality-anchored subscriptions
        return (
            f"region = 'r{rng.randrange(_regions(count))}' "
            f"AND qty > {rng.randrange(50)}"
        )
    # ~1/3: narrow range anchors
    width = max(0.5, 3000.0 / count)
    low = rng.uniform(0, 1000 - width)
    return f"price BETWEEN {low:.3f} AND {low + width:.3f}"


def build_engine(mode: str, count: int, seed: int = 7) -> RuleEngine:
    """``mode`` is an EXP-4 arm: ``naive`` or ``indexed``."""
    rng = random.Random(seed)
    engine = RuleEngine(mode=mode)
    for i in range(count):
        engine.add(f"r{i}", rule_text(i, count, rng))
    return engine


def event_stream(n: int, count: int, seed: int = 13) -> list[Event]:
    rng = random.Random(seed)
    return [
        Event(
            "tick",
            float(i),
            {
                "region": f"r{rng.randrange(_regions(count))}",
                "price": rng.uniform(0, 1000),
                "qty": rng.randrange(1000),
            },
        )
        for i in range(n)
    ]


def _timed_eval(
    engine: RuleEngine, events: list[Event], passes: int = 3
) -> tuple[float, int]:
    """Best-of-``passes`` wall time for one full pass over ``events``,
    plus the condition-evaluation count of a single pass.

    Warmup first: building 10k+ rule sets (ASTs and their closure
    graphs) leaves the collector mid-cycle; without a
    ``gc.collect()`` the first pass pays generation-2 collections
    proportional to registration-time allocations, drowning the
    per-event signal.  Warmup also forces first-call effects (index
    rebuilds, lazy memos) out of the timed region, and best-of-N
    absorbs scheduler noise.
    """
    for event in events[:20]:
        engine.evaluate(event, run_actions=False)
    gc.collect()
    best = float("inf")
    conditions = 0
    for _ in range(passes):
        base = engine.stats["conditions_evaluated"]
        started = time.perf_counter()
        for event in events:
            engine.evaluate(event, run_actions=False)
        best = min(best, time.perf_counter() - started)
        conditions = engine.stats["conditions_evaluated"] - base
    return best, conditions


def run_experiment(
    rule_counts=RULE_COUNTS, events_per_point: int = EVENTS_PER_POINT
) -> list[dict]:
    rows: list[dict] = []
    for count in rule_counts:
        events = event_stream(events_per_point, count)
        for mode in ("naive", "indexed"):
            if mode == "naive" and count > 10_000:
                # Extrapolating naive beyond 10k would dominate runtime;
                # measure a slice and scale (documented, not hidden).
                engine = build_engine(mode, 10_000)
                elapsed, conditions = _timed_eval(engine, events, passes=1)
                elapsed *= count / 10_000
                conditions = int(conditions * count / 10_000)
                extrapolated = True
            else:
                engine = build_engine(mode, count)
                elapsed, conditions = _timed_eval(engine, events)
                extrapolated = False
            rows.append({
                "rules": count,
                "mode": mode + ("*" if extrapolated else ""),
                "us_per_event": 1e6 * elapsed / len(events),
                "conditions_per_event": conditions / len(events),
                "events_per_s": len(events) / elapsed,
            })
    return rows


# -- pytest-benchmark ---------------------------------------------------------


@pytest.mark.parametrize("mode", ["naive", "indexed"])
def test_exp4_evaluate_1k_rules(benchmark, mode):
    engine = build_engine(mode, 1_000)
    events = event_stream(100, 1_000)
    counter = iter(range(10**9))
    benchmark(lambda: engine.evaluate(events[next(counter) % 100], run_actions=False))


def test_exp4_evaluate_10k_rules_indexed(benchmark):
    engine = build_engine("indexed", 10_000)
    events = event_stream(100, 10_000)
    counter = iter(range(10**9))
    benchmark(lambda: engine.evaluate(events[next(counter) % 100], run_actions=False))


def test_exp4_shape():
    rows = run_experiment(rule_counts=(100, 1_000, 10_000), events_per_point=100)
    data = {(row["rules"], row["mode"]): row for row in rows}
    # Naive cost grows ~linearly: 10k rules ≥ 5x the cost of 1k.
    assert (
        data[(10_000, "naive")]["us_per_event"]
        > 5 * data[(1_000, "naive")]["us_per_event"]
    )
    # Indexed cost grows far slower: 100x more rules < 20x more time.
    assert (
        data[(10_000, "indexed")]["us_per_event"]
        < 20 * data[(100, "indexed")]["us_per_event"]
    )
    # At 10k rules the index wins big.
    assert (
        data[(10_000, "naive")]["us_per_event"]
        > 5 * data[(10_000, "indexed")]["us_per_event"]
    )
    # The work saved is visible in condition evaluations, not just time.
    assert (
        data[(10_000, "indexed")]["conditions_per_event"]
        < data[(10_000, "naive")]["conditions_per_event"] / 10
    )


def test_exp4_correctness_at_scale():
    """Indexed and naive agree on every match at 5k rules."""
    indexed = build_engine("indexed", 5_000)
    naive = build_engine("naive", 5_000)
    for event in event_stream(50, 5_000, seed=99):
        a = {m.rule.rule_id for m in indexed.evaluate(event, run_actions=False)}
        b = {m.rule.rule_id for m in naive.evaluate(event, run_actions=False)}
        assert a == b


def main(quick: bool = False) -> None:
    if quick:
        rows = run_experiment(rule_counts=(100, 1_000), events_per_point=10)
    else:
        rows = run_experiment()
    print_table(
        "EXP-4: rule-set scalability (naive* = extrapolated from 10k)",
        rows,
        ["rules", "mode", "us_per_event", "conditions_per_event", "events_per_s"],
    )


if __name__ == "__main__":
    main()
