"""The journal owns its row images.

A row change hands the journal one image per side — the row the insert
built, the dict an update or delete took out of the table, the update's
merged row — and every trigger gets copies of its own.  So what an
AFTER trigger, or a capture sink behind one, does to the rows it is
shown changes neither the table nor what journal mining reads, live or
from the file.
"""

from __future__ import annotations

import pytest

from repro.capture import TriggerCapture
from repro.clock import SimulatedClock
from repro.db import Database
from repro.db.triggers import TriggerEvent, TriggerTiming
from repro.db.wal import OP_DELETE, OP_INSERT, OP_UPDATE


def _scribble(context) -> None:
    for row in (context.old_row, context.new_row):
        if row is not None:
            row["a"] = 999


@pytest.fixture(params=["memory", "file"])
def db(request, tmp_path):
    path = None if request.param == "memory" else str(tmp_path / "j.wal")
    database = Database(path=path, clock=SimulatedClock(start=0.0))
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT)")
    return database


def _changes(records, op: str):
    return [(record.before, record.after) for record in records if record.op == op]


@pytest.mark.parametrize("event", list(TriggerEvent))
def test_an_after_trigger_cannot_rewrite_the_journal(db, event):
    live = db.journal_reader(start_lsn=0)  # pins what it has not read
    db.insert_row("t", {"id": 1, "a": 1})
    db.create_trigger(
        "scribbler", "t", timing=TriggerTiming.AFTER, event=event, action=_scribble
    )
    if event is TriggerEvent.INSERT:
        db.insert_row("t", {"id": 2, "a": 2})
        expected = (OP_INSERT, [(None, {"id": 1, "a": 1}), (None, {"id": 2, "a": 2})])
        rows = [{"id": 1, "a": 1}, {"id": 2, "a": 2}]
    elif event is TriggerEvent.UPDATE:
        db.update_row("t", 1, {"a": 2})
        expected = (OP_UPDATE, [({"id": 1, "a": 1}, {"id": 1, "a": 2})])
        rows = [{"id": 1, "a": 2}]
    else:
        db.delete_row("t", 1)
        expected = (OP_DELETE, [({"id": 1, "a": 1}, None)])
        rows = []
    op, images = expected
    assert db.query("SELECT id, a FROM t ORDER BY id") == rows
    assert _changes(live.poll(), op) == images
    assert _changes(db.journal_reader(start_lsn=0).poll(), op) == images
    if db.wal.path is not None:
        reopened = Database(path=db.wal.path, clock=SimulatedClock(start=0.0))
        assert reopened.query("SELECT id, a FROM t ORDER BY id") == rows
        assert _changes(reopened.journal_reader(start_lsn=0).poll(), op) == images


def test_a_capture_sink_cannot_rewrite_the_journal(db):
    live = db.journal_reader(start_lsn=0)
    db.insert_row("t", {"id": 1, "a": 1})
    capture = TriggerCapture(db, ["t"], transactional=False)
    seen = []

    def sink(event) -> None:
        seen.append(dict(event.payload["new"]))
        event.payload["new"]["a"] = 999

    capture.subscribe(sink)
    db.update_row("t", 1, {"a": 2})
    assert seen == [{"id": 1, "a": 2}]
    assert _changes(live.poll(), OP_UPDATE) == [({"id": 1, "a": 1}, {"id": 1, "a": 2})]
    assert db.query("SELECT a FROM t") == [{"a": 2}]
