"""Journal format v3: deltas on disk, full images to every reader.

A v3 file carries an update as its changed columns and a delete as its
rowid, and memory keeps only what live readers have not read; history
is served from the file, with the full images rebuilt by redo from the
checkpoint before it.  So a reader of row images must see the same
changes whether it was there while they were written, came later, or
came after a crash or a reopen — back to the file's first record, below
which (after a reclaim) it raises instead.  A delta is only right over
the row it was taken from, so a ``ROLLBACK TO`` is journaled too, and
the records it undid are neither replayed nor captured.
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
    about one transaction in five rolled back, about one change in
    eight undone by ``ROLLBACK TO`` a savepoint taken just before it,
    and a checkpoint halfway."""
    db.execute("CREATE TABLE load (id INT PRIMARY KEY, host TEXT, v INT, note TEXT)")
    next_id = 0
    for step in range(steps):
        if step == steps // 2:
            db.checkpoint()  # no truncate: the history below it stays on disk
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
    # Readers there from the start read the writer's memory...
    capture = JournalCapture(db, from_start=True)
    view = MaterializedView("early", SPEC, key_field="host").bind_table(db, "load")
    _mixed_workload(db, random.Random(seed))
    live = [(e.event_type, e.timestamp, e.payload) for e in capture.poll()]
    groups = view.snapshot().groups
    assert groups == _refold(db)
    db.wal.flush()
    assert db.wal.memory_records == 0  # both readers have read it all

    # ...readers that come later read the file: live, after a crash and
    # after a reopen.  Every update and delete on disk is a delta, yet
    # they see the images the writer's memory held.
    with open(path, "rb") as handle:
        on_disk = scan_wal_bytes(handle.read()).records
    assert any(r.op == OP_UPDATE for r in on_disk)
    assert all(r.before is None for r in on_disk if r.op == OP_DELETE)
    assert _changes(db) == live
    assert _view_groups(db) == groups
    rows = "SELECT * FROM load ORDER BY id"
    written = db.query(rows)
    reopened = Database(path=path, clock=SimulatedClock(start=0.0))
    db.simulate_crash()
    for recovered in (db, reopened):
        assert recovered.query(rows) == written
        assert _changes(recovered) == live
        assert _view_groups(recovered) == groups == _refold(recovered)


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


def test_reopened_v3_file_replays_from_lsn_1(tmp_path):
    path = str(tmp_path / "t.wal")
    db = Database(path=path)
    db.execute("CREATE TABLE load (id INT, host TEXT, v INT)")
    db.execute("INSERT INTO load VALUES (1, 'h0', 5)")
    db.execute("UPDATE load SET v = 6")
    db.checkpoint()  # no truncate: the older records stay on disk
    db.execute("UPDATE load SET v = 7")

    reopened = Database(path=path)
    assert reopened.wal.first_lsn == 1
    assert [r.lsn for r in reopened.wal.records()] == list(range(1, len(reopened.wal) + 1))
    # Below the checkpoint and above it, images are whole.
    updates = [r for r in reopened.wal.records() if r.op == OP_UPDATE]
    assert [(u.before, u.after) for u in updates] == [
        ({"id": 1, "host": "h0", "v": 5}, {"id": 1, "host": "h0", "v": 6}),
        ({"id": 1, "host": "h0", "v": 6}, {"id": 1, "host": "h0", "v": 7}),
    ]
    assert len(_changes(reopened)) == 3
    view = MaterializedView("late", SPEC, key_field="host").bind_table(reopened, "load")
    assert view.snapshot().groups == _refold(reopened) == {"h0": {"n": 1, "total": 7}}


@pytest.mark.parametrize("reopen", [False, True])
def test_a_reader_below_the_files_first_record_raises(tmp_path, reopen):
    path = str(tmp_path / "t.wal")
    db = Database(path=path)
    db.execute("CREATE TABLE load (id INT, host TEXT, v INT)")
    behind = JournalCapture(db, from_start=True)
    db.execute("INSERT INTO load VALUES (1, 'h0', 5)")
    checkpoint = db.checkpoint(truncate=True)
    db.execute("UPDATE load SET v = 6")
    if reopen:
        db = Database(path=path)
    assert db.wal.first_lsn == checkpoint
    with pytest.raises(StreamError, match="no longer reaches back"):
        behind.poll()
    # Every journal reader refuses; none skips the records silently.
    with pytest.raises(StreamError, match="no longer reaches back"):
        JournalCapture(db, from_start=True)
    with pytest.raises(StreamError, match="no longer reaches back"):
        MaterializedView("late", SPEC, key_field="host").bind_table(db, "load")
    # From the checkpoint on, history is whole.
    (update,) = [r for r in db.journal_reader(checkpoint - 1).poll() if r.op == OP_UPDATE]
    assert (update.before, update.after) == (
        {"id": 1, "host": "h0", "v": 5},
        {"id": 1, "host": "h0", "v": 6},
    )


def test_an_open_transaction_is_served_whole_once_it_commits(tmp_path):
    # Until it ends, the file cannot say whether an open transaction
    # commits, so history read from it could not rebuild its images:
    # memory keeps its records, whoever else's flush comes first.
    db = Database(path=str(tmp_path / "t.wal"))
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b TEXT)")
    db.execute("CREATE TABLE other (n INT)")
    db.execute("INSERT INTO t VALUES (1, 1, 'x')")
    conn = db.connect()
    conn.begin()
    conn.execute("UPDATE t SET a = 2 WHERE id = 1")
    db.execute("INSERT INTO other VALUES (1)")  # another commit and flush
    capture = JournalCapture(db, ["t"], from_start=True)
    assert [e.event_type for e in capture.poll()] == ["t.insert"]
    conn.commit()
    (update,) = capture.poll()
    assert (update.payload["old"], update.payload["new"]) == (
        {"id": 1, "a": 1, "b": "x"},
        {"id": 1, "a": 2, "b": "x"},
    )


def test_simulate_crash_recovers_what_a_reopen_recovers(tmp_path):
    path = str(tmp_path / "t.wal")
    db = Database(path=path, clock=SimulatedClock(start=0.0), group_commit_size=8)
    _mixed_workload(db, random.Random(5), steps=60)
    checkpoint = db.checkpoint(truncate=True)
    for key in range(1000, 1010):
        db.execute("INSERT INTO load VALUES (?, 'h0', ?, '')", (key, key))
    db.execute("UPDATE load SET v = 0 WHERE id = 1000")
    assert db.wal.pending_commits  # a crash loses the unflushed commits

    def changes(database: Database) -> list[tuple]:
        return [(r.op, r.before, r.after) for r in database.journal_reader(checkpoint - 1).poll()]

    reopened = Database(path=path, clock=SimulatedClock(start=0.0))
    db.simulate_crash()
    rows = "SELECT * FROM load ORDER BY id"
    assert db.query(rows) == reopened.query(rows)
    assert (db.wal.first_lsn, db.wal.last_lsn, len(db.wal)) == (
        reopened.wal.first_lsn,
        reopened.wal.last_lsn,
        len(reopened.wal),
    )
    assert reopened.wal.first_lsn == checkpoint
    assert changes(db) == changes(reopened)
    assert changes(db)  # the group flushed after the checkpoint was kept


def test_a_crash_keeps_the_records_it_holds_whole(tmp_path):
    # A crash recovers from the file, which keeps every record below
    # the checkpoint too.
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
