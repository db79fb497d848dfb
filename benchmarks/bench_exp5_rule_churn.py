"""EXP-5 — Frequently changing rule sets (paper §2.2.c.iv.2.b).

Claim: the predicate index must absorb subscription churn (adds and
removes interleaved with evaluation) without giving back its evaluation
advantage.  The design choice ablated here is the interval trees'
rebuild policy: *lazy* (buffers + occasional rebuild, the default) vs
*eager* (rebuild on every mutation).

Workload: start with R rules; each round replaces ``churn`` rules and
evaluates a batch of events.  Reported: sustained rounds/s, evaluation
cost, mutation cost, and (for the trees) rebuild counts.

Run standalone:  python benchmarks/bench_exp5_rule_churn.py
"""

from __future__ import annotations

import random
import time

import pytest

try:
    from benchmarks.reporting import print_table
except ImportError:
    from reporting import print_table

from repro.events import Event
from repro.rules import PredicateIndex, Rule, RuleEngine
from repro.rules.engine import EventContext

BASE_RULES = 5_000
ROUNDS = 30
EVENTS_PER_ROUND = 20


def random_rule(rule_id: str, rng: random.Random) -> Rule:
    if rng.random() < 0.5:
        text = f"region = 'r{rng.randrange(500)}' AND qty > {rng.randrange(50)}"
    else:
        low = rng.uniform(0, 999)
        text = f"price BETWEEN {low:.3f} AND {low + 1.0:.3f}"
    return Rule.from_text(rule_id, text)


def random_event(rng: random.Random) -> Event:
    return Event(
        "tick",
        0.0,
        {
            "region": f"r{rng.randrange(500)}",
            "price": rng.uniform(0, 1000),
            "qty": rng.randrange(1000),
        },
    )


def run_churn(
    *,
    eager: bool,
    base: int = BASE_RULES,
    rounds: int = ROUNDS,
    churn: int = 50,
    events_per_round: int = EVENTS_PER_ROUND,
) -> dict:
    rng = random.Random(31)
    index = PredicateIndex(eager_interval_rebuild=eager)
    live: list[str] = []
    for i in range(base):
        rule = random_rule(f"r{i}", rng)
        index.add(rule)
        live.append(rule.rule_id)
    next_id = base

    events = [random_event(rng) for _ in range(events_per_round)]
    mutation_time = 0.0
    evaluation_time = 0.0
    started = time.perf_counter()
    for _ in range(rounds):
        mutation_started = time.perf_counter()
        for _ in range(churn):
            victim = live.pop(rng.randrange(len(live)))
            index.remove(victim)
            rule = random_rule(f"r{next_id}", rng)
            next_id += 1
            index.add(rule)
            live.append(rule.rule_id)
        mutation_time += time.perf_counter() - mutation_started
        evaluation_started = time.perf_counter()
        for event in events:
            index.candidates(EventContext(event.payload))
        evaluation_time += time.perf_counter() - evaluation_started
    total = time.perf_counter() - started
    rebuilds = sum(tree.rebuilds for tree in index._intervals.values())
    return {
        "policy": "eager" if eager else "lazy",
        "rounds_per_s": rounds / total,
        "mutation_ms_per_round": 1000 * mutation_time / rounds,
        "eval_ms_per_round": 1000 * evaluation_time / rounds,
        "tree_rebuilds": rebuilds,
    }


def run_experiment(quick: bool = False) -> list[dict]:
    if quick:
        kwargs = dict(base=1_000, rounds=10, churn=40)
        return [run_churn(eager=False, **kwargs), run_churn(eager=True, **kwargs)]
    return [run_churn(eager=False), run_churn(eager=True)]


# -- pytest-benchmark ----------------------------------------------------------


def test_exp5_add_remove_cycle_lazy(benchmark):
    rng = random.Random(1)
    index = PredicateIndex()
    for i in range(2_000):
        index.add(random_rule(f"r{i}", rng))
    counter = iter(range(10**9))

    def cycle():
        i = next(counter)
        rule = random_rule(f"x{i}", rng)
        index.add(rule)
        index.remove(rule.rule_id)

    benchmark(cycle)


def test_exp5_engine_add_remove(benchmark):
    rng = random.Random(2)
    engine = RuleEngine()
    for i in range(2_000):
        engine.add_rule(random_rule(f"r{i}", rng))
    counter = iter(range(10**9))

    def cycle():
        i = next(counter)
        engine.add_rule(random_rule(f"x{i}", rng))
        engine.remove_rule(f"x{i}")

    benchmark(cycle)


def test_exp5_shape():
    lazy = run_churn(eager=False, base=1_000, rounds=10, churn=40)
    eager = run_churn(eager=True, base=1_000, rounds=10, churn=40)
    # Lazy rebuilds amortize: far fewer rebuilds, cheaper mutation.
    assert lazy["tree_rebuilds"] < eager["tree_rebuilds"] / 5
    assert lazy["mutation_ms_per_round"] < eager["mutation_ms_per_round"]
    # Churn must not break correctness: candidates == brute force after
    # heavy churn.
    rng = random.Random(77)
    index = PredicateIndex()
    rules = {}
    for i in range(500):
        rule = random_rule(f"r{i}", rng)
        rules[rule.rule_id] = rule
        index.add(rule)
    for i in range(500, 1500):
        victim = rng.choice(sorted(rules))
        index.remove(victim)
        del rules[victim]
        rule = random_rule(f"r{i}", rng)
        rules[rule.rule_id] = rule
        index.add(rule)
    for _ in range(20):
        context = EventContext(random_event(rng).payload)
        brute = {
            rule_id
            for rule_id, rule in rules.items()
            if rule.compiled_condition(context)
        }
        indexed = {
            rule.rule_id
            for rule in index.candidates(context)
            if rule.compiled_condition(context)
        }
        assert indexed == brute


def main(quick: bool = False) -> None:
    base = 1_000 if quick else BASE_RULES
    churn = 40 if quick else 50
    print_table(
        f"EXP-5: rule churn ({base} rules, {churn} replaced/round, "
        f"{EVENTS_PER_ROUND} events/round)",
        run_experiment(quick=quick),
        ["policy", "rounds_per_s", "mutation_ms_per_round",
         "eval_ms_per_round", "tree_rebuilds"],
    )


if __name__ == "__main__":
    main()
