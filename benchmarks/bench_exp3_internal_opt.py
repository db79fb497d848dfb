"""EXP-3 — Internally created messages: the fast path (paper §2.2.b.i.3).

"Storing internally created messages; there are significant
opportunities for optimization."

Both paths write the identical queue-table row; the *client* path goes
through the full SQL surface (literal rendering → lexer → parser →
executor), the *internal* path calls the storage engine directly.  The
experiment measures the gap and decomposes where the client path's time
goes.

Run standalone:  python benchmarks/bench_exp3_internal_opt.py
"""

from __future__ import annotations

import gc
import time

import pytest

try:
    from benchmarks.reporting import print_table
except ImportError:
    from reporting import print_table

from repro.clock import SimulatedClock
from repro.db import Database
from repro.db.sql.lexer import tokenize
from repro.db.sql.parser import parse_statement
from repro.queues import Message, QueueTable

N_MESSAGES = 1500

PAYLOAD = {"reading": 42.5, "sensor": "s7", "tags": ["a", "b"]}


def make_queue() -> QueueTable:
    db = Database(clock=SimulatedClock(), sync_policy="none")
    return QueueTable(db, "bench")


def run_experiment(n: int = N_MESSAGES) -> list[dict]:
    rows: list[dict] = []

    # Each arm starts from a collected heap.  Without this, garbage
    # from earlier arms (dead Database/WAL/queue graphs) accumulates
    # until a gen-2 collection happens to land inside a later arm —
    # which is exactly what made enqueue_batch(256) look ~45% slower
    # than batch-64: it was billed for the whole run's cleanup.
    queue = make_queue()
    gc.collect()
    started = time.perf_counter()
    for _ in range(n):
        queue.enqueue(Message(payload=PAYLOAD))
    internal = time.perf_counter() - started

    # Advance the clock per message so each rendered INSERT has a
    # distinct enqueued_at literal, as real wall-clock timestamps would:
    # without this the constant SQL text hits the statement cache and
    # the client arm silently stops measuring per-message parsing.
    queue = make_queue()
    gc.collect()
    started = time.perf_counter()
    for _ in range(n):
        queue.enqueue_via_insert(Message(payload=PAYLOAD))
        queue.db.clock.advance(0.001)
    client = time.perf_counter() - started

    # The prepared arm keeps the client SQL interface but with constant
    # statement text (? placeholders): after the first call every
    # enqueue is a statement-cache hit — bind + execute, no parsing.
    # Same advancing clock: the prepared text is constant even though
    # the bound enqueued_at values differ, so the cache still hits.
    queue = make_queue()
    gc.collect()
    started = time.perf_counter()
    for _ in range(n):
        queue.enqueue_via_prepared(Message(payload=PAYLOAD))
        queue.db.clock.advance(0.001)
    prepared_time = time.perf_counter() - started
    hit_rate = queue.db.statement_cache.hit_rate

    # The internal path composes with batching — the endpoint of the
    # §2.2.b.i.3 optimization ladder (no SQL, one transaction per batch).
    batched: dict[int, float] = {}
    for batch in (8, 64, 256):
        queue = make_queue()
        gc.collect()
        started = time.perf_counter()
        for start in range(0, n, batch):
            queue.enqueue_batch(
                [Message(payload=PAYLOAD) for _ in range(min(batch, n - start))]
            )
        batched[batch] = time.perf_counter() - started

    # Decompose the client path: how much is pure SQL-text handling?
    message = Message(payload=PAYLOAD)
    queue_for_sql = make_queue()
    prepared = queue_for_sql._prepare(message)
    row = prepared.to_row()
    columns = ", ".join(row)
    from repro.queues.queue_table import _sql_literal

    values = ", ".join(_sql_literal(value) for value in row.values())
    sql = f"INSERT INTO q_bench ({columns}) VALUES ({values})"

    gc.collect()
    started = time.perf_counter()
    for _ in range(n):
        tokenize(sql)
    lex_time = time.perf_counter() - started
    gc.collect()
    started = time.perf_counter()
    for _ in range(n):
        parse_statement(sql)
    parse_time = time.perf_counter() - started

    rows.append({
        "path": "internal fast path",
        "msgs_per_s": n / internal,
        "relative": 1.0,
        "notes": "direct storage-engine insert",
    })
    rows.append({
        "path": "client SQL INSERT",
        "msgs_per_s": n / client,
        "relative": client / internal,
        "notes": "render + lex + parse + plan + execute",
    })
    rows.append({
        "path": "client prepared INSERT",
        "msgs_per_s": n / prepared_time,
        "relative": prepared_time / internal,
        "notes": f"statement-cache hit rate {hit_rate:.1%}",
        "hit_rate": hit_rate,
    })
    rows.append({
        "path": "  of which: lexing",
        "msgs_per_s": n / lex_time,
        "relative": lex_time / internal,
        "notes": f"{100 * lex_time / client:.0f}% of client path",
    })
    rows.append({
        "path": "  of which: lex+parse",
        "msgs_per_s": n / parse_time,
        "relative": parse_time / internal,
        "notes": f"{100 * parse_time / client:.0f}% of client path",
    })
    for batch, elapsed in batched.items():
        rows.append({
            "path": f"internal, enqueue_batch({batch})",
            "msgs_per_s": n / elapsed,
            "relative": elapsed / internal,
            "notes": "one transaction per batch",
        })
    return rows


def test_exp3_internal_path(benchmark):
    queue = make_queue()
    benchmark(lambda: queue.enqueue(Message(payload=PAYLOAD)))


def test_exp3_client_sql_path(benchmark):
    queue = make_queue()
    benchmark(lambda: queue.enqueue_via_insert(Message(payload=PAYLOAD)))


def test_exp3_shape():
    rows = run_experiment(n=500)
    by_path = {row["path"]: row for row in rows}
    # The fast path is substantially faster (the "significant
    # optimization opportunity") ...
    assert by_path["client SQL INSERT"]["relative"] > 1.5
    # The prepared path closes most of the gap: the statement cache
    # amortizes lexing/parsing, leaving bind + execute per message.
    assert (
        by_path["client prepared INSERT"]["relative"]
        < by_path["client SQL INSERT"]["relative"]
    )
    assert by_path["client prepared INSERT"]["relative"] < 2.5
    # Nearly every prepared execution is a cache hit.
    assert by_path["client prepared INSERT"]["hit_rate"] > 0.9
    # Batching the internal path is never slower than one-at-a-time.
    assert by_path["internal, enqueue_batch(64)"]["relative"] < 1.2
    # ... and all three paths store equivalent messages.
    queue = make_queue()
    queue.enqueue(Message(payload=PAYLOAD, priority=2))
    queue.enqueue_via_insert(Message(payload=PAYLOAD, priority=2))
    queue.enqueue_via_prepared(Message(payload=PAYLOAD, priority=2))
    first, second, third = queue.dequeue(), queue.dequeue(), queue.dequeue()
    assert first.payload == second.payload == third.payload
    assert first.priority == second.priority == third.priority


def _timed_batch_arm(n: int, batch: int, passes: int = 3) -> float:
    """Best-of-``passes`` seconds to enqueue n messages in ``batch``-sized
    batches, each pass from a collected heap (simulated clock, so the
    measurement is pure enqueue work)."""
    best = float("inf")
    for _ in range(passes):
        queue = make_queue()
        gc.collect()
        started = time.perf_counter()
        for start in range(0, n, batch):
            queue.enqueue_batch(
                [Message(payload=PAYLOAD) for _ in range(min(batch, n - start))]
            )
        best = min(best, time.perf_counter() - started)
    return best


def test_exp3_batch_scaling_no_cliff():
    """Regression: larger batches must not throttle throughput.

    PR 4's run (EXPERIMENTS.md, EXP-3) recorded enqueue_batch(256) at
    16.3k msgs/s vs 29.7k for batch-64 — a cliff that turned out to be gen-2 GC pauses from
    *earlier arms'* garbage landing inside the 256 arm, not a cost of
    the batch path itself.  With per-arm heap isolation (gc.collect()
    before every timed region) batch-256 amortizes at least as well as
    batch-64; this test fails if the cliff ever becomes real.
    """
    n = 2048
    t64 = _timed_batch_arm(n, 64)
    t256 = _timed_batch_arm(n, 256)
    # batch-256 throughput must be within 10% of batch-64 (usually it
    # is faster; the margin absorbs timer noise only).
    assert t256 <= t64 * 1.10, (
        f"enqueue_batch(256) regressed: {n / t256:.0f} msgs/s vs "
        f"{n / t64:.0f} msgs/s for batch-64"
    )


def main(quick: bool = False) -> None:
    n = 150 if quick else N_MESSAGES
    print_table(
        f"EXP-3: internal vs client message creation ({n} messages)",
        run_experiment(n=n),
        ["path", "msgs_per_s", "relative", "notes"],
    )


if __name__ == "__main__":
    main()
