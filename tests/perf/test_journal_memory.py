"""Count guards for the journal's memory, on records held, not bytes.

A file-backed journal holds in memory the unflushed tail, plus the
durable records a live reader has not read yet; everything older is
served from the file.  So without a reader a run's memory does not grow
with its length, a reader that never polls pins only what comes after
its position, and a reader that is gone pins nothing.  An in-memory
journal has no file to serve history from, so it keeps everything.
"""

from __future__ import annotations

import gc

from repro.capture import JournalCapture
from repro.clock import SimulatedClock
from repro.db import Database

GROUP = 64
#: Records one single-row commit appends: begin, insert, commit.
PER_COMMIT = 3


def _database(path=None, group_commit_size=1):
    db = Database(path, clock=SimulatedClock(start=0.0), group_commit_size=group_commit_size)
    db.execute("CREATE TABLE t (id INT, v TEXT)")
    db.wal.flush()
    return db


def _commit(db, count):
    for key in range(count):
        db.insert_row("t", {"id": key, "v": "x" * 32})


def _held(db):
    return db.metrics()["gauges"]["wal.memory_records"]


def test_without_a_reader_memory_holds_one_group_commit_window(tmp_path):
    db = _database(str(tmp_path / "t.wal"), group_commit_size=GROUP)
    peak = 0
    held, tracked = [], []
    for count in (1_000, 3_000):  # 1 000, then 4 000 commits in all
        for _ in range(count):
            _commit(db, 1)
            peak = max(peak, _held(db))
        db.wal.flush()
        gc.collect()
        held.append(_held(db))
        tracked.append(len(gc.get_objects()))
    assert peak <= GROUP * PER_COMMIT
    assert held[0] == held[1] == 0
    assert len(db.wal) == 4_000 * PER_COMMIT + 3  # the journal itself grew
    assert tracked[1] - tracked[0] < 200


def test_a_reader_pins_what_it_has_not_read(tmp_path):
    db = _database(str(tmp_path / "t.wal"))
    capture = JournalCapture(db)
    _commit(db, 100)
    assert _held(db) == 100 * PER_COMMIT  # the unread tail
    assert len(capture.poll()) == 100
    _commit(db, 1)  # its flush releases what the capture read
    assert _held(db) == PER_COMMIT
    assert len(capture.poll()) == 1


def test_a_collected_reader_pins_nothing(tmp_path):
    db = _database(str(tmp_path / "t.wal"))
    capture = JournalCapture(db)
    _commit(db, 50)
    assert _held(db) == 50 * PER_COMMIT
    del capture
    gc.collect()
    _commit(db, 1)
    assert _held(db) == 0


def test_an_in_memory_journal_keeps_every_record():
    db = _database()
    _commit(db, 500)
    assert _held(db) == len(db.wal) == 500 * PER_COMMIT + 3
