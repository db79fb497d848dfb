"""Count guards for the write path: one copy and one encode per change.

Counted, not timed.  A journaled change costs a fixed number of
Python-level calls in the journal — the record is built without a
per-field ``__setattr__``, encoded once and framed once at append — and
a flush is a join, a write and an fsync, whatever the batch holds.  The
DML core hands the journal the row images it already has instead of
copies, resolves the table's triggers once per call rather than per row,
and compiles no CHECK evaluator per row.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Any, Callable

import pytest

from repro.clock import SimulatedClock
from repro.db import Database
from repro.db.wal import OP_DELETE, OP_INSERT, OP_UPDATE, WriteAheadLog

#: Python functions one append may call: the failpoint check, the
#: appends counter, the clock, the framer and the encoder.
#: Comprehensions are not counted (Python 3.11 runs them as functions,
#: later versions inline them).
CALLS_PER_APPEND = 5


def _calls_inside(code: Any, action: Callable[[], Any]) -> list[Counter]:
    """For each run of ``code`` during ``action``, the Python functions it
    called (directly or not), by ``file:function``."""
    runs: list[Counter] = []
    depth = 0

    def profile(frame, event, _arg):
        nonlocal depth
        if event == "call":
            if depth:
                depth += 1
                name = frame.f_code.co_filename.rsplit("/", 1)[-1]
                if not frame.f_code.co_name.startswith("<"):
                    runs[-1][f"{name}:{frame.f_code.co_name}"] += 1
            elif frame.f_code is code:
                depth = 1
                runs.append(Counter())
        elif event == "return" and depth:
            depth -= 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return runs


@pytest.fixture
def db(tmp_path):
    database = Database(path=str(tmp_path / "j.wal"), clock=SimulatedClock(start=0.0))
    database.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, a INT, b TEXT, c REAL, CHECK (a >= 0))"
    )
    database.insert_many(
        "t", [{"id": i, "a": i, "b": "x", "c": 0.5} for i in range(1, 9)]
    )
    return database


@pytest.mark.parametrize(
    "change",
    [
        lambda db: db.insert_row("t", {"id": 100, "a": 1, "b": "é\"", "c": 1e300}),
        lambda db: db.update_row("t", 2, {"a": 7, "b": "y"}),
        lambda db: db.delete_row("t", 3),
    ],
    ids=["insert", "update", "delete"],
)
def test_an_append_makes_a_fixed_number_of_calls(db, change):
    runs = _calls_inside(WriteAheadLog.append.__code__, lambda: change(db))
    # BEGIN, the change, COMMIT.
    assert len(runs) == 3
    for calls in runs:
        assert sum(calls.values()) <= CALLS_PER_APPEND, calls


def test_a_flush_does_not_touch_each_record(db):
    costs = []
    for rows in (1, 64):
        conn = db.connect()
        conn.begin()
        db.insert_many(
            "t", [{"id": 1000 * rows + i, "a": i} for i in range(rows)], conn=conn
        )
        db.wal.group_commit_size = 10**6  # the commit must not flush
        conn.commit()
        db.wal.group_commit_size = 1
        (calls,) = _calls_inside(WriteAheadLog.flush.__code__, db.wal.flush)
        costs.append(sum(calls.values()))
    assert costs[0] == costs[1]


@pytest.mark.parametrize("method", ["insert_many", "update_rows", "delete_rows"])
def test_triggers_are_resolved_once_per_call(db, method):
    argument = {
        "insert_many": [{"id": 200 + i, "a": i} for i in range(8)],
        "update_rows": [(rowid, {"a": 50}) for rowid in range(1, 9)],
        "delete_rows": list(range(1, 9)),
    }[method]
    (calls,) = _calls_inside(
        getattr(Database, method).__code__, lambda: getattr(db, method)("t", argument)
    )
    # One (table, event) lookup — an Enum hash — for all eight rows.
    assert calls["enum.py:__hash__"] == 1
    assert calls["expr.py:compile_expression"] == 0
    assert sum(
        count for name, count in calls.items() if name.startswith("triggers.py:")
    ) <= 1


def test_the_journal_takes_the_images_it_is_handed(db, monkeypatch):
    table = db.catalog.table("t")
    appended = []
    append = db.wal.append

    def recording(*args, **kwargs):
        appended.append(append(*args, **kwargs))
        return appended[-1]

    monkeypatch.setattr(db.wal, "append", recording)

    rowid = db.insert_row("t", {"id": 300, "a": 3})
    (insert,) = [record for record in appended if record.op == OP_INSERT]
    # The table stored its own copy; the journal has the coerced row.
    assert insert.after == table.stored(rowid)
    assert insert.after is not table.stored(rowid)

    stored = table.stored(4)
    db.update_row("t", 4, {"a": 40})
    (update,) = [record for record in appended if record.op == OP_UPDATE]
    assert update.before is stored  # the dict the table let go of
    assert update.after == table.stored(4) and update.after is not table.stored(4)

    stored = table.stored(5)
    db.delete_row("t", 5)
    (delete,) = [record for record in appended if record.op == OP_DELETE]
    assert delete.before is stored
