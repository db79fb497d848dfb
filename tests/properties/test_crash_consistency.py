"""Randomized crash-recovery property suite (ISSUE 3 tentpole).

Each run drives a seeded mixed workload — DML on a table, enqueues,
delivery pumps with flaky consumers — against a file-backed database
with ONE crash armed at a randomly chosen failpoint.  When the fault
fires, the "process dies" (the workload stops at the raised
:class:`FaultInjectedError`); recovery opens a fresh :class:`Database`
over the journal and the invariants are checked against the model the
workload tracked:

* **No committed write lost** — every key whose last op completed is
  present with that value.
* **No uncommitted write visible** — every recovered row is explained
  by a completed op, or by *the* single in-flight op the crash
  interrupted (which may have become durable or not).
* **No message lost** — every durably enqueued message was either
  definitely consumed, is still pending in its queue, sits in the
  dead-letter queue, or was consumed in the batch the crash
  interrupted (at-least-once: it may also still be pending).
* **No message resurrected** — a message whose ack batch committed
  never reappears.

Everything is deterministic per seed: the workload draws from its own
``random.Random``, the injector from its seeded RNG, and the clock is
simulated — a failing ``(seed,)`` id replays exactly.

A last step kills a real child process in the middle of a log reclaim
(``checkpoint(truncate=True)``) and recovers every committed row from
what it left on disk.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import warnings

import pytest

from repro.clock import SimulatedClock
from repro.db import Database
from repro.errors import FaultInjectedError, TornTailWarning
from repro.faults import (
    BROKER_ACK,
    BROKER_CONSUME,
    BROKER_PUBLISH,
    WAL_APPEND,
    WAL_PRE_FLUSH,
    WAL_TORN_WRITE,
    FaultInjector,
    on_hit,
    raise_fault,
    torn_write,
)
from repro.pubsub.delivery import DeliveryManager
from repro.queues.broker import QueueBroker

# Tier-1 runs this fixed subset; it satisfies the ">= 20 distinct
# seeds" acceptance bar while staying fast and reproducible.
SEEDS = list(range(20))

ABSENT = object()  # sentinel: "row may have vanished"

# (name, action factory) — the crash menu a seed draws from.
CRASH_POINTS = [
    (WAL_APPEND, lambda: raise_fault("crash in append")),
    (WAL_PRE_FLUSH, lambda: raise_fault("crash before flush")),
    (WAL_TORN_WRITE, lambda: torn_write("truncate")),
    (WAL_TORN_WRITE, lambda: torn_write("corrupt")),
    (BROKER_PUBLISH, lambda: raise_fault("crash in publish")),
    (BROKER_CONSUME, lambda: raise_fault("crash in consume")),
    (BROKER_ACK, lambda: raise_fault("crash in ack")),
]


class WorkloadModel:
    """What the workload believes is durably true."""

    def __init__(self) -> None:
        self.committed: dict[int, int] = {}  # key -> value
        self.in_flight: tuple[int, set] | None = None  # key, allowed outcomes
        self.enq_ok: set[int] = set()
        self.enq_maybe: set[int] = set()
        self.consumed_ok: set[int] = set()
        self.consumed_maybe: set[int] = set()


def run_workload(seed: int, path: str) -> WorkloadModel:
    rng = random.Random(seed)
    clock = SimulatedClock(start=1000.0)
    injector = FaultInjector(seed=seed)
    db = Database(path=path, clock=clock, faults=injector)
    broker = QueueBroker(db)
    broker.create_queue("jobs")
    broker.create_queue("dead")
    db.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    manager = DeliveryManager(
        broker, "jobs", ack_timeout=5.0, max_attempts=3, dead_letter_queue="dead"
    )

    # Consumers are flaky on their own (handled failures -> retry/DLQ),
    # independent of the injected crash.  Seeded, so re-runs match.
    consumer_rng = random.Random(seed + 10_000)
    model = WorkloadModel()
    consumed_this_batch: list[int] = []

    def consumer(message) -> None:
        if consumer_rng.random() < 0.25:
            raise RuntimeError("flaky consumer")
        consumed_this_batch.append(message.payload["uid"])

    # Arm exactly one crash; everything after it models process death.
    name, action = CRASH_POINTS[rng.randrange(len(CRASH_POINTS))]
    injector.arm(name, action(), policy=on_hit(rng.randint(1, 40)))

    next_key = 0
    next_uid = 0
    try:
        for _ in range(60):
            clock.advance(rng.uniform(0.0, 2.0))
            roll = rng.random()
            if roll < 0.30:  # insert
                key, value = next_key, rng.randrange(1000)
                next_key += 1
                model.in_flight = (key, {ABSENT, value})
                db.execute(f"INSERT INTO kv VALUES ({key}, {value})")
                model.committed[key] = value
            elif roll < 0.45 and model.committed:  # update
                key = rng.choice(sorted(model.committed))
                value = rng.randrange(1000)
                model.in_flight = (key, {model.committed[key], value})
                db.execute(f"UPDATE kv SET v = {value} WHERE k = {key}")
                model.committed[key] = value
            elif roll < 0.55 and model.committed:  # delete
                key = rng.choice(sorted(model.committed))
                model.in_flight = (key, {model.committed[key], ABSENT})
                db.execute(f"DELETE FROM kv WHERE k = {key}")
                del model.committed[key]
            elif roll < 0.80:  # enqueue
                uid = next_uid
                next_uid += 1
                model.enq_maybe.add(uid)
                broker.publish("jobs", {"uid": uid})
                model.enq_maybe.discard(uid)
                model.enq_ok.add(uid)
            else:  # pump delivery
                consumed_this_batch.clear()
                manager.process_batch(consumer, batch=rng.randint(1, 5))
                # The batch ack committed before process_batch returned.
                model.consumed_ok.update(consumed_this_batch)
                consumed_this_batch.clear()
            model.in_flight = None
    except FaultInjectedError:
        # Process death: messages consumed in the interrupted batch may
        # or may not have been acked.
        model.consumed_maybe.update(consumed_this_batch)
    return model


def scan_queue_uids(db: Database, table_name: str) -> set[int]:
    uids: set[int] = set()
    table = db.catalog.table(table_name)
    for _rowid, row in table.scan():
        if row["state"] not in ("ready", "locked"):
            continue
        payload = json.loads(row["payload"]) if row["payload"] else None
        if isinstance(payload, dict) and "uid" in payload:
            uids.add(payload["uid"])
        else:  # tombstone: the id lives in headers
            headers = json.loads(row["headers"]) if row["headers"] else {}
            if "origin_message_id" in headers:
                uids.add(("tombstone", headers["origin_message_id"]))
    return uids


@pytest.mark.crash
@pytest.mark.parametrize("seed", SEEDS)
def test_crash_recovery_invariants(seed: int, tmp_path) -> None:
    path = str(tmp_path / "crash.wal")
    model = run_workload(seed, path)

    with warnings.catch_warnings():
        # A torn tail is an *expected* recovery outcome here.
        warnings.simplefilter("ignore", TornTailWarning)
        recovered = Database(path=path, clock=SimulatedClock(start=9999.0))

    # -- table invariants ---------------------------------------------------
    rows = {
        row["k"]: row["v"] for row in recovered.query("SELECT k, v FROM kv")
    }
    uncertain_key = model.in_flight[0] if model.in_flight else None
    for key, value in model.committed.items():
        if key == uncertain_key:
            continue  # the crash interrupted an op on this key
        assert rows.get(key, ABSENT) == value, (
            f"seed {seed}: committed kv[{key}]={value} lost (got "
            f"{rows.get(key, ABSENT)!r})"
        )
    for key, value in rows.items():
        if key == uncertain_key:
            allowed = model.in_flight[1]
            assert value in allowed or key in model.committed, (
                f"seed {seed}: in-flight kv[{key}] recovered as {value!r}, "
                f"allowed {allowed!r}"
            )
        else:
            assert model.committed.get(key) == value, (
                f"seed {seed}: phantom row kv[{key}]={value!r} (uncommitted "
                "write became visible)"
            )

    # -- message invariants -------------------------------------------------
    in_jobs = scan_queue_uids(recovered, "q_jobs")
    in_dead = scan_queue_uids(recovered, "q_dead")
    accounted = model.consumed_ok | model.consumed_maybe | in_jobs | in_dead
    lost = model.enq_ok - accounted
    assert not lost, f"seed {seed}: durably enqueued messages lost: {lost}"

    plain_uids = {u for u in in_jobs | in_dead if isinstance(u, int)}
    phantoms = plain_uids - model.enq_ok - model.enq_maybe
    assert not phantoms, f"seed {seed}: phantom messages: {phantoms}"

    resurrected = model.consumed_ok & plain_uids
    assert not resurrected, (
        f"seed {seed}: acked messages resurrected: {resurrected}"
    )


@pytest.mark.crash
def test_crash_point_coverage(tmp_path) -> None:
    """The 20-seed subset must actually exercise a spread of crash
    points (guards against the seed list degenerating into one path)."""
    names = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        name, _action = CRASH_POINTS[rng.randrange(len(CRASH_POINTS))]
        names.add(name)
    assert len(names) >= 4, f"seed subset only covers {sorted(names)}"


#: Exit status of a reclaim child that died at its kill point.
KILLED = 17

RECLAIM_CHILD = """
import os, sys
from unittest import mock
from repro.db import Database
from repro.db.wal import LogRecord
from repro.faults import FaultInjector, call

path, kill_at = sys.argv[1], sys.argv[2]
db = Database(path=path)
db.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
for k in range(40):
    db.execute(f"INSERT INTO kv VALUES ({k}, {k})")
for k in range(0, 40, 3):
    db.execute(f"UPDATE kv SET v = {k * 10} WHERE k = {k}")
for k in range(1, 40, 5):
    db.execute(f"DELETE FROM kv WHERE k = {k}")

def die(*_args):
    os._exit(%d)

if kill_at == "encode":
    # Die while the reclaim encodes the records it keeps.
    truncate = db.wal.truncate_before
    def dying_truncate(lsn):
        with mock.patch.object(LogRecord, "to_json", die):
            truncate(lsn)
    db.wal.truncate_before = dying_truncate
else:
    injector = FaultInjector()
    injector.arm("wal.truncate", call(lambda ctx: ctx.site["stage"] == kill_at and die()))
    db.faults = injector
db.checkpoint(truncate=True)
""" % KILLED

#: What the reclaim child committed before its reclaim.
RECLAIM_ROWS = {
    k: k * 10 if k % 3 == 0 else k for k in range(40) if k % 5 != 1
}


@pytest.mark.crash
@pytest.mark.parametrize("kill_at", ["encode", "synced", "renamed"])
def test_reclaim_killed_midway_loses_no_committed_row(tmp_path, kill_at) -> None:
    """A process killed during ``checkpoint(truncate=True)`` — while the
    kept records are written, after the rewritten copy is durable, or
    right after it replaced the journal — leaves a journal that still
    recovers every committed row."""
    path = str(tmp_path / "reclaim.wal")
    child = subprocess.run(
        [sys.executable, "-c", RECLAIM_CHILD, path, kill_at],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == KILLED, child.stderr
    recovered = Database(path=path)
    rows = {row["k"]: row["v"] for row in recovered.query("SELECT k, v FROM kv")}
    assert rows == RECLAIM_ROWS
    assert not os.path.exists(path + ".reclaim")
