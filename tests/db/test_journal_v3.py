"""Journal format v3: deltas on disk, full images in memory.

A v3 file carries an update as its changed columns and a delete as its
rowid; redo rebuilds the full images when a journal is reopened.  So a
reopened database must look, to every reader of row images, exactly
like the one that wrote the file — and must not serve records older
than its newest checkpoint, whose images cannot be rebuilt: a reader
asking for them raises instead.  A delta is only right over the row it
was taken from, so a ``ROLLBACK TO`` is journaled too, and the records
it undid are neither replayed nor captured.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.capture import JournalCapture
from repro.clock import SimulatedClock
from repro.cq import Count, MaterializedView, Sum
from repro.db import Database
from repro.db.wal import OP_DELETE, OP_UPDATE, scan_wal_bytes
from repro.errors import FaultInjectedError, StreamError
from repro.faults import WAL_APPEND, FaultInjector, on_hit, raise_fault

HOSTS = ["h0", "h1", "h2"]
SPEC = {"n": (None, Count), "total": ("v", Sum)}


def _mixed_workload(db: Database, rng: random.Random, steps: int = 150) -> None:
    """Seeded inserts / updates / deletes, one to three per transaction,
    about one transaction in five rolled back, and about one change in
    eight undone by ``ROLLBACK TO`` a savepoint taken just before it."""
    db.execute("CREATE TABLE load (id INT PRIMARY KEY, host TEXT, v INT, note TEXT)")
    next_id = 0
    for _ in range(steps):
        db.clock.advance(rng.uniform(0.0, 1.0))
        conn = db.connect()
        conn.begin()
        for _ in range(rng.randint(1, 3)):
            undo = rng.random() < 0.125
            if undo:
                conn.execute("SAVEPOINT sp")
            ids = [row["id"] for row in conn.query("SELECT id FROM load")]
            roll = rng.random()
            if roll < 0.45 or not ids:
                next_id += 1
                conn.execute(
                    "INSERT INTO load VALUES (?, ?, ?, ?)",
                    (next_id, rng.choice(HOSTS), rng.randrange(100), "n" * rng.randrange(50)),
                )
            elif roll < 0.8:
                column, value = rng.choice(
                    [("host", rng.choice(HOSTS)), ("v", rng.randrange(100)), ("note", "")]
                )
                conn.execute(f"UPDATE load SET {column} = ? WHERE id = ?", (value, rng.choice(ids)))
            else:
                conn.execute("DELETE FROM load WHERE id = ?", (rng.choice(ids),))
            if undo:
                conn.execute("ROLLBACK TO sp")
        if rng.random() < 0.2:
            conn.rollback()
        else:
            conn.commit()


def _changes(db: Database) -> list[tuple]:
    return [
        (event.event_type, event.timestamp, event.payload)
        for event in JournalCapture(db, from_start=True).poll()
    ]


def _view_groups(db: Database) -> dict:
    view = MaterializedView("by_host", SPEC, key_field="host").bind_table(db, "load")
    return view.snapshot().groups


def _refold(db: Database) -> dict:
    groups: dict = {}
    for row in db.query("SELECT host, v FROM load"):
        group = groups.setdefault(row["host"], {"n": 0, "total": 0})
        group["n"] += 1
        group["total"] += row["v"]
    return groups


@pytest.mark.parametrize("seed", [3, 17, 41])
def test_reopen_equals_the_database_that_wrote_the_file(tmp_path, seed):
    path = str(tmp_path / "load.wal")
    db = Database(path=path, clock=SimulatedClock(start=0.0))
    _mixed_workload(db, random.Random(seed))

    reopened = Database(path=path, clock=SimulatedClock(start=0.0))
    rows = "SELECT * FROM load ORDER BY id"
    assert reopened.query(rows) == db.query(rows)
    # Every update and delete on disk is a delta, yet capture from the
    # start returns the images the writer's memory held.
    with open(path, "rb") as handle:
        on_disk = scan_wal_bytes(handle.read()).records
    assert any(r.op == OP_UPDATE for r in on_disk)
    assert all(r.before is None for r in on_disk if r.op == OP_DELETE)
    assert _changes(reopened) == _changes(db)
    assert _view_groups(reopened) == _view_groups(db) == _refold(reopened)


def test_rollback_to_savepoint_survives_reopen(tmp_path):
    # The second update's delta is {b: 'y'}; replayed over the undone
    # a = 2 it would recover a row that was never committed.
    path = str(tmp_path / "t.wal")
    db = Database(path=path, clock=SimulatedClock(start=0.0))
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b TEXT)")
    db.execute("INSERT INTO t VALUES (1, 1, 'x')")
    conn = db.connect()
    for sql in (
        "BEGIN",
        "SAVEPOINT s",
        "UPDATE t SET a = 2 WHERE id = 1",
        "INSERT INTO t VALUES (2, 0, 'undone')",
        "ROLLBACK TO s",
        "UPDATE t SET b = 'y' WHERE id = 1",
        "COMMIT",
    ):
        conn.execute(sql)
    committed = [{"id": 1, "a": 1, "b": "y"}]
    assert db.query("SELECT * FROM t") == committed

    reopened = Database(path=path, clock=SimulatedClock(start=0.0))
    assert reopened.query("SELECT * FROM t") == committed
    # Capture, live or after reopen, shows only what committed.
    changes = _changes(db)
    assert [(kind, payload["old"], payload["new"]) for kind, _, payload in changes] == [
        ("t.insert", None, {"id": 1, "a": 1, "b": "x"}),
        ("t.update", {"id": 1, "a": 1, "b": "x"}, {"id": 1, "a": 1, "b": "y"}),
    ]
    assert _changes(reopened) == changes


def test_rollback_to_journals_before_it_undoes(tmp_path):
    path = str(tmp_path / "t.wal")
    injector = FaultInjector()
    db = Database(path=path, faults=injector)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT)")
    db.execute("INSERT INTO t VALUES (1, 1)")
    conn = db.connect()
    for sql in ("BEGIN", "SAVEPOINT s", "UPDATE t SET a = 2 WHERE id = 1"):
        conn.execute(sql)
    injector.arm(WAL_APPEND, raise_fault("disk full"), policy=on_hit(1))
    with pytest.raises(FaultInjectedError):
        conn.execute("ROLLBACK TO s")
    # The marker was not journaled, so nothing was undone.
    assert conn.query("SELECT a FROM t") == [{"a": 2}]
    conn.execute("ROLLBACK TO s")
    conn.execute("COMMIT")
    assert Database(path=path).query("SELECT a FROM t") == [{"a": 1}]


def test_update_records_on_disk_carry_only_changed_columns(tmp_path):
    path = str(tmp_path / "t.wal")
    db = Database(path=path)
    db.execute("CREATE TABLE t (a INT, b TEXT, c INT)")
    db.execute("INSERT INTO t VALUES (1, 'long text', 3)")
    db.execute("UPDATE t SET c = 4")
    db.execute("DELETE FROM t")
    with open(path, "rb") as handle:
        frames = handle.read().decode().splitlines()[1:]
    payloads = [json.loads(frame.split(":", 2)[2]) for frame in frames]
    update, delete = [p for p in payloads if p["op"] in (OP_UPDATE, OP_DELETE)]
    assert (update["before"], update["after"]) == ({"c": 3}, {"c": 4})
    assert "before" not in delete and "after" not in delete
    # In memory the records keep full images.
    update, delete = [r for r in db.wal.records() if r.op in (OP_UPDATE, OP_DELETE)]
    assert (update.before, update.after) == (
        {"a": 1, "b": "long text", "c": 3},
        {"a": 1, "b": "long text", "c": 4},
    )
    assert delete.before == {"a": 1, "b": "long text", "c": 4}


def test_reopened_v3_file_serves_nothing_below_the_checkpoint(tmp_path):
    path = str(tmp_path / "t.wal")
    db = Database(path=path)
    db.execute("CREATE TABLE load (id INT, host TEXT, v INT)")
    db.execute("INSERT INTO load VALUES (1, 'h0', 5)")
    db.execute("UPDATE load SET v = 6")
    checkpoint = db.checkpoint()  # no truncate: the older records stay on disk
    db.execute("UPDATE load SET v = 7")

    reopened = Database(path=path)
    assert reopened.wal.first_lsn == checkpoint
    assert [r.lsn for r in reopened.wal.records()][0] == checkpoint
    with pytest.raises(StreamError, match="no longer reaches back"):
        MaterializedView("late", SPEC, key_field="host").bind_table(reopened, "load")
    # Every journal reader refuses; none skips the records silently.
    with pytest.raises(StreamError, match="no longer reaches back"):
        JournalCapture(reopened, from_start=True)
    assert JournalCapture(reopened).poll() == []  # from the tail it is fine
    # From the checkpoint on, images are whole.
    (update,) = [r for r in reopened.wal.records() if r.op == OP_UPDATE]
    assert update.before == {"id": 1, "host": "h0", "v": 6}
    assert update.after == {"id": 1, "host": "h0", "v": 7}
    assert reopened.query("SELECT v FROM load") == [{"v": 7}]


def test_a_crash_keeps_the_records_it_holds_whole(tmp_path):
    # Records still in memory carry full images, so simulate_crash
    # keeps them all, below the checkpoint too.
    db = Database(path=str(tmp_path / "t.wal"))
    db.execute("CREATE TABLE load (id INT, host TEXT, v INT)")
    db.execute("INSERT INTO load VALUES (1, 'h0', 5)")
    db.checkpoint()
    db.simulate_crash()
    assert db.wal.first_lsn == 1
    assert [e.payload["new"] for e in JournalCapture(db, from_start=True).poll()] == [
        {"id": 1, "host": "h0", "v": 5}
    ]


def test_a_reader_left_behind_a_reclaim_raises_on_poll():
    db = Database()
    db.execute("CREATE TABLE load (id INT, host TEXT, v INT)")
    capture = JournalCapture(db, from_start=True)
    db.execute("INSERT INTO load VALUES (1, 'h0', 5)")
    db.checkpoint(truncate=True)
    with pytest.raises(StreamError, match="no longer reaches back"):
        capture.poll()
