"""Perf guards for the columnar fast path.

1. **GC sensitivity**: the ColumnStore must keep the tracked Python
   object count flat as row count grows — its state is O(columns)
   numpy arrays, never per-row Python objects.  (The batch-256 cliff
   EXPERIMENTS.md records under EXP-3 was gen-2 GC walks over per-row
   object graphs; this guard keeps the new layer from reintroducing
   one.)
2. **Fast path provably engages**: an eligible aggregate query must
   run with zero per-row closure calls — asserted by making the row
   path (plan_access) explode and watching the query still succeed.
3. **Fallback provably engages**: ineligible queries must take the
   row path, observable in VECTOR_STATS.
"""

from __future__ import annotations

import gc

import pytest

from repro.db.database import Database
from repro.db.sql import executor


pytestmark = pytest.mark.columnar


def _build(rows):
    db = Database()
    db.execute("CREATE TABLE metrics (id INT, grp TEXT, val REAL)")
    for i in range(rows):
        db.execute(
            "INSERT INTO metrics (id, grp, val) VALUES (?, ?, ?)",
            [i, f"g{i % 7}", float(i % 100)],
        )
    return db


def _projection_build_delta(rows):
    """GC-tracked objects added by building the columnar projection
    over a table of ``rows`` rows (heap and journal objects excluded:
    they exist before the measurement starts)."""
    db = _build(rows)
    table = db.catalog.table("metrics")
    store = table.column_store()
    store.batch()  # warm: first-call imports and lazy setup
    store.note_mutation()  # invalidate so the measured call rebuilds
    gc.collect()
    before = len(gc.get_objects())
    store.batch()
    gc.collect()
    after = len(gc.get_objects())
    return db, after - before


def test_column_store_tracked_objects_flat_vs_rowcount():
    db_small, small = _projection_build_delta(1_000)
    db_large, large = _projection_build_delta(8_000)
    # The projection is O(columns) arrays + series objects; growing the
    # table 8x must not grow the store's object population with it.
    assert large < small + 100, (
        f"projection over 8000 rows allocated {large} tracked objects vs "
        f"{small} over 1000 — the columnar layer is allocating per-row "
        "Python objects"
    )
    assert small < 500
    del db_small, db_large


def test_column_store_adds_constant_objects_per_table():
    db = _build(2_000)
    db.query("SELECT count(*) FROM metrics")  # build the projection
    gc.collect()
    baseline = len(gc.get_objects())
    # Rebuilding the projection from scratch must not leak objects.
    table = db.catalog.table("metrics")
    table.column_store().note_mutation()
    db.query("SELECT count(*) FROM metrics")
    gc.collect()
    after = len(gc.get_objects())
    assert abs(after - baseline) < 200


def test_fast_path_runs_with_zero_per_row_closure_calls(monkeypatch):
    db = _build(500)
    db.query("SELECT count(*) FROM metrics")  # warm the projection

    def explode(*_args, **_kwargs):
        raise AssertionError("row path engaged for a vector-eligible query")

    monkeypatch.setattr("repro.db.sql.executor.plan_access", explode)
    rows = db.query(
        "SELECT grp, count(*), sum(val) FROM metrics WHERE val > 10 GROUP BY grp"
    )
    assert len(rows) == 7


def test_ineligible_query_provably_falls_back(monkeypatch):
    db = _build(200)
    before = dict(executor.VECTOR_STATS)
    # DISTINCT aggregate: compile-time ineligible.
    db.query("SELECT count(DISTINCT grp) FROM metrics")
    assert (
        executor.VECTOR_STATS["fallback_compile"]
        == before["fallback_compile"] + 1
    )
    # Non-aggregate SELECT: never offered to the fast path.
    fast_before = executor.VECTOR_STATS["fast_path"]
    db.query("SELECT id FROM metrics WHERE val > 99")
    assert executor.VECTOR_STATS["fast_path"] == fast_before


def test_set_vectorized_disables_fast_path():
    db = _build(100)
    previous = executor.set_vectorized(False)
    try:
        before = executor.VECTOR_STATS["fast_path"]
        db.query("SELECT count(*) FROM metrics")
        assert executor.VECTOR_STATS["fast_path"] == before
    finally:
        executor.set_vectorized(previous)


def test_query_result_mutation_cannot_corrupt_storage():
    """Public-path safety for the no-copy scan: rows returned by
    db.query are caller-owned; writing to them must not reach the
    heap (or the columnar projection built over it)."""
    db = _build(50)
    for row in db.query("SELECT id, grp, val FROM metrics"):
        row["grp"] = "corrupted"
        row["val"] = -1.0
    assert db.query(
        "SELECT count(*) FROM metrics WHERE grp = 'corrupted'"
    ) == [{"count": 0}]
    previous = executor.set_vectorized(False)
    try:
        assert db.query(
            "SELECT count(*) FROM metrics WHERE grp = 'corrupted'"
        ) == [{"count": 0}]
    finally:
        executor.set_vectorized(previous)
