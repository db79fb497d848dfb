"""Byte identity: the journal writes exactly the reference encoding.

The journal frames each record once, at append, with a direct format
for BEGIN / COMMIT / ABORT and one reusable JSON encoder for the rest.
``tests/reference/wal_frames.py`` keeps the encoding it replaced
(``json.dumps`` per record, a ``str`` frame, re-encoded at flush).  A
seeded mix of DML, DDL and queue operations, with awkward values, is
written to a v3 journal and to adopted v1 and v2 files; every frame on
disk must equal the reference frame of the record the database
appended, and a torn write must still damage only the batch's final
frame, exactly as before.
"""

from __future__ import annotations

import random

import pytest

from repro.clock import SimulatedClock
from repro.db import Database
from repro.db.schema import Column
from repro.db.types import BOOL, INT, JSON, REAL, TEXT, TIMESTAMP
from repro.db.wal import OP_BEGIN, OP_COMMIT, LogRecord
from repro.errors import FaultInjectedError, TornTailWarning
from repro.faults import WAL_TORN_WRITE, FaultInjector, on_hit, torn_write
from repro.queues import QueueTable
from tests.reference.wal_frames import reference_frame

TEXTS = [
    "plain",
    'quote " backslash \\ slash /',
    "tab\tnewline\ncr\rformfeed\f",
    "naïve café",
    "日本語のテキスト",
    "emoji 😀 and   separator",
    "nul \u0000 and bell \u0007",
    "",
]
REALS = [0.0, -0.0, 1e300, -1e-300, 2.5, 1 / 3, 12345678.9, -7.0]
INTS = [0, -1, 7, 2**63, -(2**70), 10**30]
JSONS = [1, 1.0, True, None, "é\"x", [1, 2.0, "ü", None], {"k": [-0.0, 1e300]}, 2**64]


def _recording(db: Database) -> list[LogRecord]:
    """Every record the database appends from now on, in order."""
    appended: list[LogRecord] = []
    append = db.wal.append

    def recording(*args, **kwargs):
        record = append(*args, **kwargs)
        appended.append(record)
        return record

    db.wal.append = recording
    return appended


def _row(rng: random.Random, row_id: int) -> dict:
    return {
        "id": row_id,
        "r": rng.choice(REALS + [None]),
        "n": rng.choice(INTS + [None]),
        "t": rng.choice(TEXTS + [None]),
        "b": rng.choice([True, False, None]),
        "at": rng.choice([0.0, 1e9 + 0.125, 1.5, None]),
        "j": rng.choice(JSONS),
    }


def _mixed(db: Database, rng: random.Random, steps: int = 90) -> None:
    """Seeded DML over every value above (type-changing JSON updates
    ``1`` → ``1.0`` → ``True`` included), deletes, no-op updates, DDL,
    a checkpoint, ``ROLLBACK TO``, aborted transactions and a queue's
    enqueue / dequeue / ack."""
    db.create_table(
        "mix",
        [
            Column("id", INT, primary_key=True),
            Column("r", REAL),
            Column("n", INT),
            Column("t", TEXT),
            Column("b", BOOL),
            Column("at", TIMESTAMP),
            Column("j", JSON),
        ],
    )
    queue = QueueTable(db, "jobs")
    next_id = 0
    for step in range(steps):
        db.clock.advance(rng.choice([0.0, 0.1, 1.0 / 3, 17.25]))
        if step == steps // 3:
            db.execute("CREATE INDEX ix_mix_n ON mix (n)")
            db.execute("CREATE TABLE scratch (k TEXT)")
            db.execute("INSERT INTO scratch VALUES ('é')")
            db.execute("DROP TABLE scratch")
        if step == steps // 2:
            db.checkpoint()
        conn = db.connect()
        conn.begin()
        for _ in range(rng.randint(1, 3)):
            undo = rng.random() < 0.15
            if undo:
                conn.savepoint("sp")
            live = [row["id"] for row in conn.query("SELECT id FROM mix")]
            roll = rng.random()
            if roll < 0.35 or not live:
                next_id += 1
                db.insert_row("mix", _row(rng, next_id), conn=conn)
            elif roll < 0.55:
                retyped = {"j": rng.choice([1, 1.0, True, "1"])}
                db.update_row("mix", rng.choice(live), retyped, conn=conn)
            elif roll < 0.7:
                changes = _row(rng, 0)
                del changes["id"]
                keep = rng.sample(sorted(changes), rng.randint(0, 3))
                db.update_row(
                    "mix", rng.choice(live), {k: changes[k] for k in keep}, conn=conn
                )
            elif roll < 0.8:
                db.delete_row("mix", rng.choice(live), conn=conn)
            else:
                queue.enqueue(
                    {"text": rng.choice(TEXTS), "value": rng.choice(REALS)}, conn=conn
                )
            if undo:
                conn.rollback_to("sp")
        if rng.random() < 0.2:
            conn.rollback()
        else:
            conn.commit()
        if step % 7 == 0:
            for message in queue.dequeue_batch(rng.randint(1, 3)):
                queue.ack(message.message_id)
    db.wal.flush()


def _adopt(path: str, version: int) -> int:
    """Write a pre-existing journal of ``version`` (one committed empty
    transaction, reference-encoded); returns its size."""
    data = b"%REPRO-WAL 2\n" if version == 2 else b""
    for record in (
        LogRecord(lsn=1, txid=1, op=OP_BEGIN, ts=5.0),
        LogRecord(lsn=2, txid=1, op=OP_COMMIT, ts=5.0),
    ):
        data += reference_frame(record, version)
    with open(path, "wb") as handle:
        handle.write(data)
    return len(data)


def _open(tmp_path, version: int, **options) -> tuple[Database, str, int]:
    path = str(tmp_path / f"v{version}.wal")
    start = _adopt(path, version) if version < 3 else 0
    db = Database(path=path, clock=SimulatedClock(start=1000.0), **options)
    assert db.wal.load_report is None or db.wal.load_report.version == version
    return db, path, start


def _file_frames(path: str, start: int, version: int) -> list[bytes]:
    with open(path, "rb") as handle:
        data = handle.read()
    if version == 3:
        assert data.startswith(b"%REPRO-WAL 3\n")
        start = len(b"%REPRO-WAL 3\n")
    lines = data[start:].split(b"\n")
    assert lines.pop() == b""  # every frame is whole
    return [line + b"\n" for line in lines]


@pytest.mark.parametrize("version", [1, 2, 3])
@pytest.mark.parametrize("seed", [3201, 3202])
def test_every_frame_is_the_reference_encoding(tmp_path, version, seed):
    db, path, start = _open(tmp_path, version)
    appended = _recording(db)
    _mixed(db, random.Random(seed))
    ops = {record.op for record in appended}
    assert {"begin", "commit", "abort", "insert", "update", "delete",
            "create_table", "drop_table", "create_index", "checkpoint",
            "rollback_to"} <= ops
    frames = _file_frames(path, start, version)
    assert len(frames) == len(appended)
    for frame, record in zip(frames, appended):
        assert frame == reference_frame(record, version), record.lsn
    # What a reopen reads back is what was committed.
    reopened = Database(path=path, clock=SimulatedClock(start=0.0))
    query = "SELECT * FROM mix ORDER BY id"
    assert reopened.query(query) == db.query(query)


@pytest.mark.parametrize("version", [1, 2, 3])
@pytest.mark.parametrize("mode", ["truncate", "corrupt"])
def test_a_torn_write_damages_only_the_final_frame(tmp_path, version, mode):
    injector = FaultInjector()
    db, path, start = _open(tmp_path, version, faults=injector)
    db.execute("CREATE TABLE t (a INT, s TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'é')")
    appended = _recording(db)
    with open(path, "rb") as handle:
        before = handle.read()

    injector.arm(WAL_TORN_WRITE, torn_write(mode), policy=on_hit(1))
    with pytest.raises(FaultInjectedError):
        db.insert_many("t", [{"a": 2, "s": "x" * 40}, {"a": 3, "s": "日本"}])

    batch = [reference_frame(record, version) for record in appended]
    assert [record.op for record in appended] == ["begin", "insert", "insert", "commit"]
    last = batch[-1]
    if mode == "truncate":
        damaged = last[: len(last) - max(1, len(last) // 2)]
    else:
        target = len(last) - max(2, len(last) // 2)
        damaged = last[:target] + bytes([last[target] ^ 0x55]) + last[target + 1 :]
    with open(path, "rb") as handle:
        assert handle.read() == before + b"".join(batch[:-1]) + damaged

    with pytest.warns(TornTailWarning):
        reborn = Database(path=path, clock=SimulatedClock(start=0.0))
    assert reborn.query("SELECT a FROM t") == [{"a": 1}]
