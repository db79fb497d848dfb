"""EXP-10 — Recoverability & transactional support (paper §2.2.b.ii.3).

Correctness claims (asserted, not just measured):

* **No committed message is lost** by a crash.
* **No uncommitted message survives** a crash.

Performance claims:

* recovery time grows with journal length (redo is linear);
* checkpoints bound recovery time: after a checkpoint, redo work is
  proportional to the post-checkpoint suffix, not history;
* file-backed recovery (parse + CRC verify + redo) stays linear in the
  WAL byte size, for full-image (v2) and delta (v3) journals alike, and
  the checksummed framing costs a small constant factor of journal
  bytes (reported as ``framing_overhead_pct``);
* a torn tail adds only the classification scan — recovery after a
  mid-append crash is not pathologically slower than a clean restart.

Run standalone:  python benchmarks/bench_exp10_recovery.py
"""

from __future__ import annotations

import os
import tempfile
import time
import warnings

import pytest

try:
    from benchmarks.reporting import print_table
except ImportError:
    from reporting import print_table

from repro.clock import SimulatedClock
from repro.db import Database
from repro.db.wal import WAL_FORMAT_VERSION, WAL_MAGIC, iter_frames
from repro.errors import FaultInjectedError, TornTailWarning
from repro.faults import WAL_TORN_WRITE, FaultInjector, on_hit, torn_write
from repro.queues import QueueBroker

OP_COUNTS = (1_000, 5_000, 20_000)
FILE_OP_COUNTS = (500, 2_000, 8_000)


def loaded_database(ops: int, *, checkpoint_at: int | None = None) -> Database:
    db = Database(clock=SimulatedClock(), sync_policy="none")
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(ops):
        if i % 3 == 0:
            db.insert_row("t", {"id": i, "v": i})
        elif i % 3 == 1:
            rowids = db.catalog.table("t").lookup_rowids("id", i - 1)
            if rowids:
                db.update_row("t", rowids[0], {"v": -i})
        elif i % 12 == 2:  # delete a quarter of the inserted rows
            rowids = db.catalog.table("t").lookup_rowids("id", i - 2)
            if rowids:
                db.delete_row("t", rowids[0])
        if checkpoint_at is not None and i == checkpoint_at:
            db.checkpoint(truncate=True)
    db.wal.flush()
    return db


def run_experiment(op_counts=OP_COUNTS) -> list[dict]:
    rows: list[dict] = []
    for ops in op_counts:
        for label, checkpoint_at in (
            ("no checkpoint", None),
            ("checkpoint @50%", ops // 2),
        ):
            db = loaded_database(ops, checkpoint_at=checkpoint_at)
            reference = {
                rowid: row for rowid, row in db.catalog.table("t").scan()
            }
            journal_records = len(db.wal)
            started = time.perf_counter()
            db.simulate_crash()
            recovery_time = time.perf_counter() - started
            recovered = {
                rowid: row for rowid, row in db.catalog.table("t").scan()
            }
            assert recovered == reference, "recovery must be exact"
            rows.append({
                "ops": ops,
                "config": label,
                "journal_records": journal_records,
                "recovery_ms": 1000 * recovery_time,
                "rows_recovered": len(recovered),
            })
    return rows


def loaded_file_database(
    path: str,
    ops: int,
    *,
    faults: FaultInjector | None = None,
    version: int = WAL_FORMAT_VERSION,
) -> Database:
    """Seeded DML workload against an on-disk journal (sync per commit,
    so the WAL holds one flush batch per transaction) of format
    ``version``: a journal keeps the format of the file it attaches to,
    so an older format starts from a file holding only its header."""
    if version != WAL_FORMAT_VERSION:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{WAL_MAGIC} {version}\n")
    db = Database(path=path, clock=SimulatedClock(), faults=faults)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for i in range(ops):
        if i % 3 == 2:
            db.update_row("t", db.catalog.table("t").lookup_rowids("id", i - 1)[0], {"v": -i})
        else:
            db.insert_row("t", {"id": i, "v": i})
    return db


def run_file_experiment(op_counts=FILE_OP_COUNTS) -> list[dict]:
    """Recovery time vs WAL *byte* size for the full-image (v2) and the
    delta (v3) format, plus the cost of the checksummed framing
    relative to the bare JSON payloads."""
    rows: list[dict] = []
    for ops in op_counts:
        for version in (2, 3):
            with tempfile.TemporaryDirectory() as workdir:
                path = os.path.join(workdir, "journal.wal")
                db = loaded_file_database(path, ops, version=version)
                reference = {
                    rowid: row for rowid, row in db.catalog.table("t").scan()
                }
                with open(path, "rb") as handle:
                    data = handle.read()
                wal_bytes = len(data)
                # Each frame is <length>:<crc32>:<json>\n; the JSON and
                # its newline are what plain JSONL would have written.
                payload_bytes = sum(
                    len(data[start:end].split(b":", 2)[2])
                    for start, end, _record in iter_frames(data)
                )
                started = time.perf_counter()
                reborn = Database(path=path, clock=SimulatedClock())
                recovery_time = time.perf_counter() - started
                recovered = {
                    rowid: row for rowid, row in reborn.catalog.table("t").scan()
                }
                assert recovered == reference, "file recovery must be exact"
                assert reborn.wal.load_report.version == version
                rows.append({
                    "ops": ops,
                    "format": f"v{version}",
                    "wal_kib": wal_bytes / 1024,
                    "journal_records": len(db.wal),
                    "framing_overhead_pct": 100 * (wal_bytes - payload_bytes) / payload_bytes,
                    "recovery_ms": 1000 * recovery_time,
                    "records_per_s": len(db.wal) / recovery_time,
                    "rows_recovered": len(recovered),
                })
    return rows


def run_torn_tail_experiment(op_counts=FILE_OP_COUNTS) -> list[dict]:
    """Crash mid-append (torn final frame) vs clean restart: recovery
    must lose only the tail and pay only the scan for classification."""
    rows: list[dict] = []
    for ops in op_counts:
        for mode in ("clean", "torn"):
            with tempfile.TemporaryDirectory() as workdir:
                path = os.path.join(workdir, "journal.wal")
                injector = FaultInjector() if mode == "torn" else None
                db = loaded_file_database(path, ops, faults=injector)
                durable_rows = {
                    rowid: row for rowid, row in db.catalog.table("t").scan()
                }
                if mode == "torn":
                    injector.arm(WAL_TORN_WRITE, torn_write("truncate"), policy=on_hit(1))
                    try:
                        db.insert_row("t", {"id": ops + 1, "v": 0})
                    except FaultInjectedError:
                        pass  # the "process" died mid-write
                started = time.perf_counter()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", TornTailWarning)
                    reborn = Database(path=path, clock=SimulatedClock())
                recovery_time = time.perf_counter() - started
                recovered = {
                    rowid: row for rowid, row in reborn.catalog.table("t").scan()
                }
                assert recovered == durable_rows, (
                    "torn tail may only lose the interrupted transaction"
                )
                report = reborn.wal.load_report
                rows.append({
                    "ops": ops,
                    "config": mode,
                    "recovery_ms": 1000 * recovery_time,
                    "rows_recovered": len(recovered),
                    "dropped_bytes": report.dropped_bytes if report else 0,
                })
    return rows


# -- pytest-benchmark --------------------------------------------------------------


def test_exp10_recovery_5k(benchmark):
    db = loaded_database(5_000)

    def crash_and_recover():
        db.simulate_crash()

    benchmark.pedantic(crash_and_recover, rounds=3, iterations=1)


def test_exp10_shape():
    rows = run_experiment(op_counts=(1_000, 5_000))
    data = {(row["ops"], row["config"]): row for row in rows}
    # Redo is roughly linear in journal length.
    assert (
        data[(5_000, "no checkpoint")]["recovery_ms"]
        > 2 * data[(1_000, "no checkpoint")]["recovery_ms"]
    )
    # A checkpoint cuts the journal and the recovery time.
    assert (
        data[(5_000, "checkpoint @50%")]["journal_records"]
        < data[(5_000, "no checkpoint")]["journal_records"]
    )
    assert (
        data[(5_000, "checkpoint @50%")]["recovery_ms"]
        < data[(5_000, "no checkpoint")]["recovery_ms"]
    )


def test_exp10_no_committed_message_lost_no_uncommitted_delivered():
    """The §2.2.d.iii.3 guarantee, stated as the paper states it."""
    db = Database(clock=SimulatedClock())  # sync_policy="commit"
    broker = QueueBroker(db)
    broker.create_queue("q")
    committed_ids = [broker.publish("q", {"n": i}) for i in range(50)]

    # An in-flight transaction enqueues 10 more but never commits.
    conn = db.connect()
    conn.begin()
    for i in range(10):
        broker.queue("q").enqueue({"uncommitted": i}, conn=conn)
    # Crash with the transaction open.
    db.simulate_crash()

    recovered = QueueBroker(db)
    queue = recovered.create_queue_or_attach("q")
    payloads = []
    while True:
        message = recovered.consume("q")
        if message is None:
            break
        recovered.ack("q", message.message_id)
        payloads.append(message.payload)
    # Exactly the committed fifty; none of the uncommitted ten.
    assert sorted(p["n"] for p in payloads) == list(range(50))
    assert not any("uncommitted" in p for p in payloads)


def test_exp10_crash_during_consumption_loses_nothing():
    db = Database(clock=SimulatedClock())
    broker = QueueBroker(db)
    broker.create_queue("q")
    for i in range(20):
        broker.publish("q", {"n": i})
    # Consume 5 and ack them; lock 3 more without acking; crash.
    for _ in range(5):
        message = broker.consume("q")
        broker.ack("q", message.message_id)
    for _ in range(3):
        broker.consume("q")
    db.simulate_crash()

    recovered = QueueBroker(db)
    queue = recovered.create_queue_or_attach("q")
    queue.recover_locked()
    remaining = []
    while True:
        message = recovered.consume("q")
        if message is None:
            break
        recovered.ack("q", message.message_id)
        remaining.append(message.payload["n"])
    # The 5 acked are gone; the locked-but-unacked 3 and the untouched
    # 12 all survive.
    assert len(remaining) == 15


def test_exp10_file_recovery_shape():
    rows = run_file_experiment(op_counts=(300, 1_200))
    by_arm = {(row["ops"], row["format"]): row for row in rows}
    for version in ("v2", "v3"):
        # Recovery work scales with WAL size...
        assert by_arm[1_200, version]["wal_kib"] > 2 * by_arm[300, version]["wal_kib"]
    # ...deltas write fewer bytes for the same records...
    for ops in (300, 1_200):
        assert by_arm[ops, "v3"]["wal_kib"] < by_arm[ops, "v2"]["wal_kib"]
        assert by_arm[ops, "v3"]["journal_records"] == by_arm[ops, "v2"]["journal_records"]
    # ...and framing costs a bounded, small share of journal bytes.
    for row in rows:
        assert 0 < row["framing_overhead_pct"] < 25


def test_exp10_torn_tail_arm():
    rows = run_torn_tail_experiment(op_counts=(300,))
    torn = next(row for row in rows if row["config"] == "torn")
    assert torn["dropped_bytes"] > 0  # the tear really happened


def main(quick: bool = False) -> None:
    print_table(
        "EXP-10: crash-recovery time vs journal size",
        run_experiment(op_counts=(200,) if quick else OP_COUNTS),
        ["ops", "config", "journal_records", "recovery_ms", "rows_recovered"],
    )
    print_table(
        "EXP-10b: file-backed recovery vs WAL size (v2 full images, v3 deltas)",
        run_file_experiment(op_counts=(200,) if quick else FILE_OP_COUNTS),
        [
            "ops",
            "format",
            "wal_kib",
            "journal_records",
            "framing_overhead_pct",
            "recovery_ms",
            "records_per_s",
            "rows_recovered",
        ],
    )
    print_table(
        "EXP-10c: torn-tail recovery (crash mid-append) vs clean restart",
        run_torn_tail_experiment(op_counts=(200,) if quick else FILE_OP_COUNTS),
        ["ops", "config", "recovery_ms", "rows_recovered", "dropped_bytes"],
    )


if __name__ == "__main__":
    main()
