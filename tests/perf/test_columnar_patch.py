"""Perf guards for in-place ColumnStore maintenance, on counts not time.

1. UPDATEs and DELETEs between two aggregates are *patched* into the
   projection: ``rebuilds`` stays put and ``patched_rows`` counts the
   rows touched.
2. A burst of writes larger than the log bound costs exactly one
   rebuild, at the next read.
3. The pending log is bounded even when nobody reads the projection
   again, and holds nothing once it has been dropped.
4. A flush leaves O(columns) GC-tracked objects behind, however many
   rows it patched (the budget of ``test_columnar_gc.py``).
"""

from __future__ import annotations

import gc

import pytest

from repro.db import columnar
from repro.db.database import Database


pytestmark = pytest.mark.columnar

AGGREGATE = "SELECT grp, count(*), sum(val) FROM metrics GROUP BY grp"


def _build(rows):
    db = Database()
    db.execute("CREATE TABLE metrics (id INT PRIMARY KEY, grp TEXT, val REAL)")
    db.insert_many(
        "metrics",
        [{"id": i, "grp": f"g{i % 7}", "val": float(i % 100)} for i in range(rows)],
    )
    return db


def _log_bound(table):
    return max(
        columnar._LOG_BOUND_FLOOR, int(len(table) * columnar._LOG_BOUND_FRACTION)
    )


def test_updates_and_deletes_patch_instead_of_rebuilding():
    db = _build(2_000)
    store = db.catalog.table("metrics").column_store()
    db.query(AGGREGATE)
    assert (store.rebuilds, store.patched_rows) == (1, 0)
    updates, deletes = 25, 10
    for i in range(updates):
        db.execute("UPDATE metrics SET val = ? WHERE id = ?", [1000.0 + i, i * 3])
    for i in range(deletes):
        db.execute("DELETE FROM metrics WHERE id = ?", [1_000 + i])
    db.execute("INSERT INTO metrics (id, grp, val) VALUES (5000, 'g0', 1.0)")
    rows = db.query(AGGREGATE)
    assert sum(row["count"] for row in rows) == 2_000 - deletes + 1
    assert store.rebuilds == 1
    assert store.patched_rows == updates + deletes
    assert store.append_batches == 1
    # Writes to one row coalesce: the log is per rowid, not per statement.
    for value in (1.0, 2.0, 3.0):
        db.execute("UPDATE metrics SET val = ? WHERE id = 7", [value])
    db.query(AGGREGATE)
    assert store.patched_rows == updates + deletes + 1


def test_burst_over_the_bound_rebuilds_exactly_once():
    db = _build(400)
    table = db.catalog.table("metrics")
    store = table.column_store()
    db.query(AGGREGATE)
    burst = _log_bound(table) + 1
    for i in range(burst):
        db.execute("UPDATE metrics SET val = -1.0 WHERE id = ?", [i])
    assert store.pending() == 0  # dropped at the bound, before any read
    db.query(AGGREGATE)
    db.query(AGGREGATE)
    assert store.rebuilds == 2
    assert store.patched_rows == 0


def test_unread_projection_does_not_accumulate_a_log():
    """One aggregate, then ten times the table in inserts and no further
    read: the log must stay bounded and end up empty."""
    rows = 300
    db = _build(rows)
    table = db.catalog.table("metrics")
    store = table.column_store()
    db.query(AGGREGATE)
    high_water = 0
    for i in range(rows, rows * 11):
        db.execute(
            "INSERT INTO metrics (id, grp, val) VALUES (?, ?, ?)", [i, "late", 1.0]
        )
        high_water = max(high_water, store.pending())
        assert store.pending() <= _log_bound(table)
    assert 0 < high_water <= rows  # the log filled, then was dropped
    assert store.pending() == 0
    assert store.rebuilds == 1  # and nothing was rebuilt for nobody
    late = [row for row in db.query(AGGREGATE) if row["grp"] == "late"]
    assert late[0]["count"] == rows * 10
    assert store.rebuilds == 2


def _flush_delta(patched):
    """GC-tracked objects a flush of ``patched`` updated rows (plus a
    few deletes and inserts) leaves behind.  Writes go straight to the
    heap table so the journal's per-statement records stay out of the
    count."""
    db = _build(8_000)
    table = db.catalog.table("metrics")
    store = table.column_store()
    store.batch()
    rowids = [rowid for rowid, _row in table.scan_internal()]
    gc.collect()
    before = len(gc.get_objects())
    for rowid in rowids[:patched]:
        table.update(rowid, {"val": -2.0, "grp": "patched"})
    for rowid in rowids[-5:]:
        table.delete(rowid)  # frees five row dicts
    for i in range(5):
        table.insert({"id": 10_000 + i, "grp": "tail", "val": 0.5})
    store.batch()
    assert store.rebuilds == 1 and store.patched_rows == patched + 5
    gc.collect()
    return db, len(gc.get_objects()) - before


def test_flush_retains_constant_tracked_objects():
    db_small, small = _flush_delta(100)
    db_large, large = _flush_delta(3_000)
    assert large < small + 100, (
        f"flushing 3000 patched rows retained {large} tracked objects vs "
        f"{small} for 100 — the log or the patch path keeps per-row objects"
    )
    assert abs(small) < 200
    del db_small, db_large
