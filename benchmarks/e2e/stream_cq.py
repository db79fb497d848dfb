"""``stream_cq``: a disordered tick stream through four continuous queries.

All the work is in ``repro.cq`` (and ``repro.db.expr`` through it); no
database, queue or shard is touched.  30 % of the ticks arrive late, by
up to 90 % of the windows' allowed lateness, so nothing is dropped and
the CEDR promise can be checked: after retractions cancel, the windowed
results must equal those of the same queries fed in timestamp order.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Sequence

from harness import Tracer, clock
from repro.cq import (
    OUTPUT_SPECULATIVE,
    Avg,
    ContinuousQuery,
    Count,
    CQEngine,
    MaterializedView,
    Max,
    PatternElement,
    PatternMatcher,
    Seq,
    SlidingWindow,
    Sum,
    TumblingWindow,
    WindowAggregate,
)
from repro.events import Event

SYMBOLS = 50
#: Event-time spacing of ticks: 1 000 ticks per event-second.
TICK_S = 0.001
LATENESS_S = 0.25
LATE_SHARE = 0.30
TUMBLING_S = 1.0
SLIDING_S, SLIDE_S = 2.0, 0.5
#: SEQ(a, b) WITHIN: ``a`` is a large trade (every fifth tick), ``b`` a
#: later tick of the same symbol priced PATTERN_JUMP above it.  Most
#: runs wait out the whole WITHIN (1 500 ticks), which holds about 270
#: of them live once that many ticks have passed; the warm-up is longer.
#: Large trades come on a fixed beat, not by chance: the matcher's cost
#: per tick is the number of live runs, and that number should be the
#: workload's, not the seed's.
PATTERN_WITHIN_S = 1.5
PATTERN_MIN_QTY = 801
LARGE_TRADE_EVERY = 5
PATTERN_JUMP = 3.5
VIEW_BATCH = 64
QUERIES = ("tumbling", "sliding", "pattern", "view")

Tick = tuple[int, float, int, float, int]  # seq, timestamp, symbol, price, qty


def make_ticks(seed: int, count: int) -> list[Tick]:
    """Ticks in arrival order.  Prices are multiples of 1/64 so that
    sums are exact in binary floating point whatever the fold order."""
    rng = random.Random(seed)
    base = [rng.randrange(20, 200) for _ in range(SYMBOLS)]
    arrivals = []
    for seq in range(count):
        timestamp = seq * TICK_S
        symbol = rng.randrange(SYMBOLS)
        price = base[symbol] + rng.randrange(-128, 129) / 64.0
        qty = (
            rng.randrange(PATTERN_MIN_QTY, 1001)
            if seq % LARGE_TRADE_EVERY == 0
            else rng.randrange(1, PATTERN_MIN_QTY)
        )
        delay = (
            rng.uniform(0.0, 0.9 * LATENESS_S) if rng.random() < LATE_SHARE else 0.0
        )
        arrivals.append((timestamp + delay, (seq, timestamp, symbol, price, qty)))
    arrivals.sort(key=lambda item: item[0])
    return [tick for _arrival, tick in arrivals]


def tick_event(tick: Tick) -> Event:
    seq, timestamp, symbol, price, qty = tick
    return Event(
        "tick",
        timestamp,
        {"seq": seq, "symbol": f"s{symbol}", "price": price, "qty": qty},
    )


def build_window_queries() -> dict[str, tuple[ContinuousQuery, Any]]:
    """The two windowed queries and their window operators (built the
    same way for the measured run and the in-order reference)."""
    tumbling = ContinuousQuery("tumbling")
    tumbling_window = TumblingWindow(
        tumbling.source,
        TUMBLING_S,
        key_field="symbol",
        allowed_lateness=LATENESS_S,
        output_mode=OUTPUT_SPECULATIVE,
    )
    tumbling.head = WindowAggregate(
        tumbling_window,
        "volume_1s",
        {"volume": ("qty", Sum), "trades": (None, Count), "high": ("price", Max)},
    )
    sliding = ContinuousQuery("sliding")
    sliding_window = SlidingWindow(
        sliding.source,
        SLIDING_S,
        SLIDE_S,
        key_field="symbol",
        allowed_lateness=LATENESS_S,
    )
    sliding.head = WindowAggregate(
        sliding_window, "avg_2s", {"avg_price": ("price", Avg)}
    )
    return {
        "tumbling": (tumbling, tumbling_window),
        "sliding": (sliding, sliding_window),
    }


def net_results(outputs: Sequence[Event]) -> tuple[Counter, Counter]:
    """(emissions minus retractions, retractions of nothing emitted)."""

    def key(event: Event) -> tuple[Any, ...]:
        return tuple(sorted(event.payload.items()))

    emitted = Counter(key(event) for event in outputs if event.is_data)
    retracted = Counter(key(event) for event in outputs if event.is_retraction)
    return emitted - retracted, retracted - emitted


def reference_pattern(ticks: Sequence[Tick]) -> Counter:
    """SEQ(a, b) WITHIN with skip-till-next selection, in arrival order.

    A run dies once any event has arrived stamped more than WITHIN past
    its start, so liveness is a test against the running maximum
    timestamp; runs are bucketed per symbol because ``b`` must share it.
    """
    matches: Counter = Counter()
    runs: dict[int, list[tuple[float, float, int]]] = {}
    newest = float("-inf")
    for seq, timestamp, symbol, price, qty in ticks:
        newest = max(newest, timestamp)
        waiting = []
        for start, a_price, a_seq in runs.get(symbol, ()):
            if newest - start > PATTERN_WITHIN_S:
                continue
            if price >= a_price + PATTERN_JUMP:
                matches[(a_seq, seq)] += 1
            else:
                waiting.append((start, a_price, a_seq))
        if qty >= PATTERN_MIN_QTY:
            waiting.append((timestamp, price, seq))
        runs[symbol] = waiting
    return matches


class StreamCq:
    def __init__(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.latencies_s: list[float] = []
        self.submitted: list[Tick] = []

    def generate(self, count: int) -> list[Tick]:
        return make_ticks(self.seed, count)

    def prepare(self, ticks: Sequence[Tick]) -> list[tuple[Tick, Event]]:
        return [(tick, tick_event(tick)) for tick in ticks]

    def setup(self, warmup: Sequence[tuple[Tick, Event]]) -> None:
        self.latencies_s.clear()
        self.submitted.clear()
        self.engine = CQEngine()
        self.windows = build_window_queries()
        pattern = ContinuousQuery("pattern")
        self.matcher = PatternMatcher(
            pattern.source,
            Seq(
                PatternElement("a", "tick", f"qty >= {PATTERN_MIN_QTY}"),
                PatternElement(
                    "b",
                    "tick",
                    f"symbol = a_symbol AND price >= a_price + {PATTERN_JUMP}",
                ),
                within=PATTERN_WITHIN_S,
            ),
            output_type="jump",
        )
        pattern.head = self.matcher
        view_query = ContinuousQuery("view")
        self.view = MaterializedView(
            "by_symbol",
            {"n": (None, Count), "total_qty": ("qty", Sum), "avg_price": ("price", Avg)},
            key_field="symbol",
        ).bind_stream(view_query.source, batch_size=VIEW_BATCH)
        self.queries = {
            "tumbling": self.windows["tumbling"][0],
            "sliding": self.windows["sliding"][0],
            "pattern": pattern,
            "view": view_query,
        }
        for name in QUERIES:
            query = self.queries[name]
            if name != "view":
                query.collect()
            # CQEngine.push calls query.push: shadowing the bound method
            # on the instance puts a span around each query separately.
            query.push = self.tracer.wrap(f"cq.{name}", query.push)
            self.engine.register(query)
        self.step(warmup, None)

    def step(
        self, batch: Sequence[tuple[Tick, Event]], dues: Sequence[float] | None
    ) -> None:
        push, tracer = self.engine.push, self.tracer
        if dues is None:
            for tick, event in batch:
                tracer.op_id = tick[0]
                push(event)
        else:
            latencies = self.latencies_s
            for (tick, event), due in zip(batch, dues):
                tracer.op_id = tick[0]
                push(event)
                latencies.append(clock() - due)
        tracer.op_id = None
        self.submitted.extend(tick for tick, _event in batch)

    def verify(self) -> tuple[int, list[str]]:
        """End the stream, then check every query against its reference."""
        problems: list[str] = []
        failed = 0
        for _query, window in self.windows.values():
            window.flush()
        self.view.flush()

        in_order = build_window_queries()
        for query, _window in in_order.values():
            query.collect()
        for tick in sorted(self.submitted, key=lambda tick: (tick[1], tick[0])):
            event = tick_event(tick)
            for query, _window in in_order.values():
                query.push(event)
        for name, (query, window) in in_order.items():
            window.flush()
            net, orphans = net_results(self.queries[name].outputs)
            expected, _ = net_results(query.outputs)
            wrong = sum(((net - expected) + (expected - net) + orphans).values())
            if wrong:
                problems.append(
                    f"{name}: {wrong} window results differ from the in-order run"
                )
                failed += wrong

        observed = Counter(
            (event.payload["a_seq"], event.payload["b_seq"])
            for event in self.queries["pattern"].outputs
        )
        expected_matches = reference_pattern(self.submitted)
        wrong = sum(
            ((observed - expected_matches) + (expected_matches - observed)).values()
        )
        if wrong:
            problems.append(f"pattern: {wrong} matches differ from the reference")
            failed += wrong

        folded: dict[str, list[float]] = {}
        for _seq, _timestamp, symbol, price, qty in self.submitted:
            group = folded.setdefault(f"s{symbol}", [0, 0, 0.0])
            group[0] += 1
            group[1] += qty
            group[2] += price
        refold = {
            key: {"n": n, "total_qty": total, "avg_price": prices / n}
            for key, (n, total, prices) in folded.items()
        }
        groups = self.view.snapshot().groups
        wrong = sum(1 for key in refold.keys() | groups.keys() if refold.get(key) != groups.get(key))
        if wrong:
            problems.append(f"view: {wrong} groups differ from a refold")
            failed += wrong
        return failed, problems

    def layer_metrics(self, traced_ops: int, total_ops: int) -> dict[str, float]:
        """Span self time per query over the traced ops, and operator
        ``stats`` over the whole instance.  Read before ``verify``
        flushes the windows."""
        windows = [window for _query, window in self.windows.values()]
        outputs = sum(
            len(self.queries[name].outputs) for name in QUERIES if name != "view"
        )
        metrics = {
            f"cq.{name}.self_us_per_op": self.tracer.self_us(f"cq.{name}") / traced_ops
            for name in QUERIES
        }
        metrics.update(
            {
                "cq.pattern.peak_runs": float(self.matcher.stats["peak_runs"]),
                "cq.retractions_per_op": self.windows["tumbling"][0].head.retractions_emitted
                / total_ops,
                "cq.outputs_per_op": outputs / total_ops,
                "cq.late_dropped_share": sum(w.late_dropped for w in windows)
                / (len(windows) * total_ops),
            }
        )
        return metrics

    def probes(self) -> tuple[dict[str, float], int, list[str]]:
        return {}, 0, []

    def teardown(self) -> None:
        pass
