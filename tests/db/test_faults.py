"""Fault-injection harness: policies, actions, and the WAL/broker/
delivery failpoints (ISSUE 3 tentpole).

The acceptance-critical scenarios live here:

* a torn WAL tail — injected through the ``wal.flush.torn`` failpoint,
  not hand-crafted bytes — recovers losing only the tail;
* a checksum-corrupted record *before* the last commit fails loudly
  with the offending LSN and byte offset;
* pre-existing plain-JSONL (v1) and full-image (v2) journals still
  replay, and a WAL attached to one keeps appending, and reclaims, in
  its format (no mixed-format files).
"""

import json
import os
import warnings

import pytest

from repro.capture import JournalCapture
from repro.clock import SimulatedClock
from repro.db import Database
from repro.db.wal import (
    OP_BEGIN,
    OP_COMMIT,
    OP_INSERT,
    WAL_HEADER,
    LogRecord,
    WriteAheadLog,
    encode_frame,
    scan_wal_bytes,
)
from repro.errors import (
    FaultInjectedError,
    RecoveryError,
    TornTailWarning,
)
from repro.faults import (
    BROKER_ACK,
    BROKER_CONSUME,
    BROKER_PUBLISH,
    DELIVERY_CONSUMER,
    WAL_APPEND,
    WAL_PRE_FLUSH,
    WAL_TORN_WRITE,
    FaultInjector,
    after,
    corrupt_record_on_disk,
    crash_wal,
    every,
    on_hit,
    raise_fault,
    torn_write,
    with_probability,
)
from repro.pubsub.delivery import DeliveryManager
from repro.queues.broker import QueueBroker


# --------------------------------------------------------------------------
# Policies and the injector itself
# --------------------------------------------------------------------------


class TestPolicies:
    def fires(self, policy, hits, seed=0):
        injector = FaultInjector(seed=seed)
        injector.arm("p", raise_fault(), policy=policy)
        out = []
        for _ in range(hits):
            try:
                injector.fire("p")
                out.append(False)
            except FaultInjectedError:
                out.append(True)
        return out

    def test_on_hit_fires_exactly_once(self):
        assert self.fires(on_hit(3), 6) == [False, False, True, False, False, False]

    def test_on_hit_rejects_zero(self):
        with pytest.raises(ValueError):
            on_hit(0)

    def test_every_n(self):
        assert self.fires(every(2), 5) == [False, True, False, True, False]

    def test_after_n(self):
        assert self.fires(after(2), 4) == [False, False, True, True]

    def test_probabilistic_is_seed_deterministic(self):
        a = self.fires(with_probability(0.5), 40, seed=123)
        b = self.fires(with_probability(0.5), 40, seed=123)
        assert a == b
        assert any(a) and not all(a)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            with_probability(1.5)

    def test_max_fires_bounds_always(self):
        injector = FaultInjector()
        injector.arm("p", raise_fault(), max_fires=2)
        fired = 0
        for _ in range(5):
            try:
                injector.fire("p")
            except FaultInjectedError:
                fired += 1
        assert fired == 2

    def test_unarmed_fire_is_noop(self):
        assert FaultInjector().fire("nothing.armed") is None

    def test_disarm_and_history(self):
        injector = FaultInjector()
        injector.arm("p", raise_fault(), policy=on_hit(1))
        assert injector.armed("p")
        with pytest.raises(FaultInjectedError):
            injector.fire("p")
        injector.disarm("p")
        assert injector.fire("p") is None
        assert injector.history == [("p", 1)]
        injector.reset()
        assert injector.history == []


# --------------------------------------------------------------------------
# WAL failpoints
# --------------------------------------------------------------------------


class TestWalFailpoints:
    def test_append_fault_is_side_effect_free(self):
        injector = FaultInjector()
        wal = WriteAheadLog(faults=injector)
        wal.append(1, OP_BEGIN)
        injector.arm(WAL_APPEND, raise_fault(), policy=on_hit(1))
        with pytest.raises(FaultInjectedError):
            wal.append(1, OP_INSERT, table="t", rowid=1, after={})
        # The failed append consumed no LSN and left no record behind.
        assert len(wal) == 1
        assert wal.last_lsn == 1
        wal.append(1, OP_COMMIT)
        assert [r.lsn for r in wal.records()] == [1, 2]

    def test_pre_flush_crash_drops_volatile_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        injector = FaultInjector()
        db = Database(path=path, clock=SimulatedClock(start=0.0), faults=injector)
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        injector.arm(WAL_PRE_FLUSH, crash_wal(), policy=on_hit(1))
        with pytest.raises(FaultInjectedError):
            db.execute("INSERT INTO t VALUES (2)")
        reborn = Database(path=path, clock=SimulatedClock(start=0.0))
        assert [r["a"] for r in reborn.query("SELECT a FROM t")] == [1]

    def test_post_flush_fires_with_durable_data(self, tmp_path):
        path = str(tmp_path / "wal.log")
        injector = FaultInjector()
        seen = []
        from repro.faults import call

        injector.arm(
            "wal.post_flush",
            call(lambda ctx: seen.append(ctx.site["wal"].durable_lsn)),
        )
        db = Database(path=path, clock=SimulatedClock(start=0.0), faults=injector)
        db.execute("CREATE TABLE t (a INT)")
        assert seen, "post_flush never fired"
        assert seen[-1] == db.wal.durable_lsn


class TestTornTail:
    """Acceptance: torn-tail WAL recovers losing only the tail, and the
    tear is injected via the failpoint, not hand-crafted bytes."""

    @pytest.mark.parametrize("mode", ["truncate", "corrupt"])
    def test_torn_flush_recovers_to_last_commit(self, tmp_path, mode):
        path = str(tmp_path / "wal.log")
        injector = FaultInjector()
        db = Database(path=path, clock=SimulatedClock(start=0.0), faults=injector)
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO t VALUES (2)")

        injector.arm(WAL_TORN_WRITE, torn_write(mode), policy=on_hit(1))
        with pytest.raises(FaultInjectedError):
            db.execute("INSERT INTO t VALUES (3)")

        # "New process": recover from the damaged file.
        with pytest.warns(TornTailWarning):
            reborn = Database(path=path, clock=SimulatedClock(start=0.0))
        assert sorted(r["a"] for r in reborn.query("SELECT a FROM t")) == [1, 2]
        assert reborn.wal.load_report is not None
        assert reborn.wal.load_report.torn
        assert reborn.wal.load_report.dropped_bytes > 0

        # The truncation repaired the file: a second open is clean.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            third = Database(path=path, clock=SimulatedClock(start=0.0))
        assert sorted(r["a"] for r in third.query("SELECT a FROM t")) == [1, 2]

    def test_recovered_wal_accepts_new_writes(self, tmp_path):
        path = str(tmp_path / "wal.log")
        injector = FaultInjector()
        db = Database(path=path, clock=SimulatedClock(start=0.0), faults=injector)
        db.execute("CREATE TABLE t (a INT)")
        injector.arm(WAL_TORN_WRITE, torn_write("truncate"), policy=on_hit(1))
        with pytest.raises(FaultInjectedError):
            db.execute("INSERT INTO t VALUES (1)")
        with pytest.warns(TornTailWarning):
            reborn = Database(path=path, clock=SimulatedClock(start=0.0))
        reborn.execute("INSERT INTO t VALUES (7)")
        third = Database(path=path, clock=SimulatedClock(start=0.0))
        assert [r["a"] for r in third.query("SELECT a FROM t")] == [7]


class TestMidLogCorruption:
    """Acceptance: a checksum-corrupted record *before* the last commit
    fails loudly, naming the LSN and byte offset."""

    def test_corruption_before_commit_raises_with_lsn(self, tmp_path):
        path = str(tmp_path / "wal.log")
        db = Database(path=path, clock=SimulatedClock(start=0.0))
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO t VALUES (2)")
        victim = db.wal.records()[2].lsn  # mid-log, committed work follows

        offset = corrupt_record_on_disk(path, victim)
        with pytest.raises(RecoveryError) as excinfo:
            Database(path=path, clock=SimulatedClock(start=0.0))
        assert excinfo.value.lsn == victim
        # The error names the corrupt frame's start; the flipped byte
        # lies inside that frame.
        assert excinfo.value.byte_offset is not None
        assert excinfo.value.byte_offset <= offset
        assert "mid-log corruption" in str(excinfo.value)
        # Refusal means the file was NOT truncated behind our back.
        assert os.path.getsize(path) > offset

    def test_corrupting_the_final_record_is_a_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        db = Database(path=path, clock=SimulatedClock(start=0.0))
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        last = db.wal.records()[-1].lsn  # the trailing commit record
        corrupt_record_on_disk(path, last)
        with pytest.warns(TornTailWarning):
            reborn = Database(path=path, clock=SimulatedClock(start=0.0))
        # The final transaction's commit vanished with the tail.
        assert reborn.query("SELECT a FROM t") == []


class TestLegacyFormat:
    """Pre-existing plain-JSONL (v1) journals replay unchanged."""

    def _write_v1(self, path: str) -> None:
        records = [
            LogRecord(lsn=1, txid=1, op=OP_BEGIN),
            LogRecord(lsn=2, txid=1, op=OP_INSERT, table="t", rowid=1, after={"a": 5}),
            LogRecord(lsn=3, txid=1, op=OP_COMMIT),
        ]
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(record.to_json() + "\n")

    def test_v1_log_replays(self, tmp_path):
        path = str(tmp_path / "old.log")
        self._write_v1(path)
        wal = WriteAheadLog(path=path)
        assert len(wal) == 3
        assert wal.records()[1].after == {"a": 5}
        assert wal.load_report.version == 1

    def test_v1_log_keeps_appending_v1(self, tmp_path):
        path = str(tmp_path / "old.log")
        self._write_v1(path)
        wal = WriteAheadLog(path=path)
        wal.append(2, OP_BEGIN)
        wal.append(2, OP_COMMIT)
        wal.flush()
        with open(path, "rb") as handle:
            data = handle.read()
        # Still headerless plain JSONL — one file never mixes formats.
        assert not data.startswith(WAL_HEADER.encode("utf-8"))
        json.loads(data.splitlines()[-1])  # every line is bare JSON
        assert len(WriteAheadLog(path=path)) == 5

    def test_v1_torn_tail_truncates(self, tmp_path):
        path = str(tmp_path / "old.log")
        self._write_v1(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"lsn": 4, "txid": 2, "op"')  # interrupted write
        with pytest.warns(TornTailWarning):
            wal = WriteAheadLog(path=path)
        assert len(wal) == 3

    def test_new_files_get_v3_header(self, tmp_path):
        path = str(tmp_path / "new.log")
        wal = WriteAheadLog(path=path)
        wal.append(1, OP_BEGIN)
        wal.append(1, OP_COMMIT)
        wal.flush()
        with open(path, "rb") as handle:
            data = handle.read()
        assert data.startswith(WAL_HEADER.encode("utf-8"))
        report = scan_wal_bytes(data)
        assert report.version == 3
        assert not report.torn
        assert len(report.records) == 2


class TestV2Format:
    """Framed journals written before deltas (v2) replay unchanged and
    keep their full-image format on append and on reclaim."""

    SCHEMA = {
        "name": "t",
        "columns": [
            {"name": "a", "type": "INT", "nullable": True, "primary_key": False,
             "unique": False, "default": None},
            {"name": "b", "type": "TEXT", "nullable": True, "primary_key": False,
             "unique": False, "default": None},
        ],
        "checks": [],
    }
    RECORDS = [
        LogRecord(lsn=1, txid=1, op=OP_BEGIN),
        LogRecord(lsn=2, txid=1, op="create_table", table="t", meta={"schema": SCHEMA}),
        LogRecord(lsn=3, txid=1, op=OP_INSERT, table="t", rowid=1,
                  after={"a": 5, "b": "x" * 64}),
        LogRecord(lsn=4, txid=1, op=OP_INSERT, table="t", rowid=2, after={"a": 7, "b": "y"}),
        LogRecord(lsn=5, txid=1, op=OP_COMMIT),
        LogRecord(lsn=6, txid=2, op=OP_BEGIN),
        LogRecord(lsn=7, txid=2, op="update", table="t", rowid=1,
                  before={"a": 5, "b": "x" * 64}, after={"a": 6, "b": "x" * 64}),
        LogRecord(lsn=8, txid=2, op="delete", table="t", rowid=2, before={"a": 7, "b": "y"}),
        LogRecord(lsn=9, txid=2, op=OP_COMMIT),
    ]

    @classmethod
    def _write(cls, path: str, version: int = 2) -> None:
        """The fixture as a v2 file (or, for ``version=1``, plain JSONL)."""
        with open(path, "w", encoding="utf-8") as handle:
            if version == 2:
                handle.write("%REPRO-WAL 2\n")
            for record in cls.RECORDS:
                payload = record.to_json(version)
                handle.write(encode_frame(payload) if version == 2 else payload + "\n")

    def test_v2_log_replays(self, tmp_path):
        path = str(tmp_path / "v2.log")
        self._write(path)
        db = Database(path=path)
        assert db.wal.load_report.version == 2
        assert db.query("SELECT a, b FROM t") == [{"a": 6, "b": "x" * 64}]
        update = db.wal.records()[6]
        assert update.before == {"a": 5, "b": "x" * 64}
        assert update.after == {"a": 6, "b": "x" * 64}

    def test_v2_log_keeps_appending_v2(self, tmp_path):
        path = str(tmp_path / "v2.log")
        self._write(path)
        db = Database(path=path)
        db.execute("UPDATE t SET a = 8")
        db.execute("DELETE FROM t WHERE a = 8")
        with open(path, "rb") as handle:
            data = handle.read()
        assert data.startswith(b"%REPRO-WAL 2\n")
        report = scan_wal_bytes(data)
        assert report.version == 2 and not report.torn
        update, delete = [r for r in report.records if r.lsn > 9 and r.op in ("update", "delete")]
        # Full images on disk, as every v2 record has.
        assert update.before == {"a": 6, "b": "x" * 64}
        assert update.after == {"a": 8, "b": "x" * 64}
        assert delete.before == {"a": 8, "b": "x" * 64}
        reopened = Database(path=path)
        assert reopened.query("SELECT a FROM t") == []
        assert reopened.wal.load_report.version == 2

    @pytest.mark.parametrize("version", [1, 2])
    def test_reopen_keeps_records_below_the_checkpoint(self, tmp_path, version):
        # Old formats carry full images on disk: nothing needs a floor.
        path = str(tmp_path / "old.log")
        self._write(path, version)
        Database(path=path).checkpoint()
        reopened = Database(path=path)
        assert reopened.wal.first_lsn == 1
        assert len(JournalCapture(reopened, from_start=True).poll()) == 4

    @pytest.mark.parametrize("version", [1, 2])
    def test_reclaim_keeps_the_file_format(self, tmp_path, version):
        path = str(tmp_path / "old.log")
        self._write(path, version)
        db = Database(path=path)
        db.checkpoint(truncate=True)
        with open(path, "rb") as handle:
            data = handle.read()
        assert scan_wal_bytes(data).version == version
        assert Database(path=path).query("SELECT a FROM t") == [{"a": 6}]


# --------------------------------------------------------------------------
# Broker and delivery failpoints
# --------------------------------------------------------------------------


class TestBrokerFailpoints:
    def make_broker(self):
        injector = FaultInjector()
        db = Database(clock=SimulatedClock(start=0.0), faults=injector)
        broker = QueueBroker(db)
        broker.create_queue("jobs")
        return injector, broker

    def test_publish_fault_leaves_queue_empty(self):
        injector, broker = self.make_broker()
        injector.arm(BROKER_PUBLISH, raise_fault(), policy=on_hit(1))
        with pytest.raises(FaultInjectedError):
            broker.publish("jobs", {"n": 1})
        assert broker.queue("jobs").depth() == 0
        broker.publish("jobs", {"n": 2})  # next attempt succeeds
        assert broker.queue("jobs").depth() == 1

    def test_consume_fault_leaves_message_ready(self):
        injector, broker = self.make_broker()
        broker.publish("jobs", {"n": 1})
        injector.arm(BROKER_CONSUME, raise_fault(), policy=on_hit(1))
        with pytest.raises(FaultInjectedError):
            broker.consume("jobs")
        assert broker.queue("jobs").depth() == 1  # not locked, not lost
        assert broker.consume("jobs").payload == {"n": 1}

    def test_ack_fault_keeps_message_locked(self):
        injector, broker = self.make_broker()
        broker.publish("jobs", {"n": 1})
        message = broker.consume("jobs")
        injector.arm(BROKER_ACK, raise_fault(), policy=on_hit(1))
        with pytest.raises(FaultInjectedError):
            broker.ack("jobs", message.message_id)
        locked = list(broker.queue("jobs").browse(include_locked=True))
        assert [m.message_id for m in locked] == [message.message_id]
        broker.ack("jobs", message.message_id)  # retry succeeds
        assert list(broker.queue("jobs").browse(include_locked=True)) == []


class TestDeliveryConsumerFailpoint:
    def test_injected_consumer_fault_retries_then_succeeds(self):
        injector = FaultInjector()
        db = Database(clock=SimulatedClock(start=0.0), faults=injector)
        broker = QueueBroker(db)
        broker.create_queue("jobs")
        manager = DeliveryManager(broker, "jobs", max_attempts=5)
        broker.publish("jobs", {"n": 1})
        injector.arm(DELIVERY_CONSUMER, raise_fault(), policy=on_hit(1))

        consumed = []
        assert manager.process_batch(consumed.append, batch=1) == 0  # injected failure
        assert manager.stats["consumer_errors"] == 1
        assert manager.process_batch(consumed.append, batch=1) == 1  # redelivery succeeds
        assert [m.payload for m in consumed] == [{"n": 1}]

    def test_persistent_consumer_fault_dead_letters(self):
        injector = FaultInjector()
        db = Database(clock=SimulatedClock(start=0.0), faults=injector)
        broker = QueueBroker(db)
        broker.create_queue("jobs")
        manager = DeliveryManager(
            broker, "jobs", max_attempts=2, dead_letter_queue="jobs_dead"
        )
        broker.publish("jobs", {"n": 1})
        injector.arm(DELIVERY_CONSUMER, raise_fault())  # always fails

        for _ in range(3):
            manager.process_batch(lambda message: None)
        dead = list(broker.queue("jobs_dead").browse())
        assert len(dead) == 1
        assert dead[0].headers["origin_queue"] == "jobs"
        assert dead[0].headers["dead_letter_reason"] == "max delivery attempts"
        assert manager.stats["dead_lettered"] == 1
        assert broker.queue("jobs").depth() == 0


class TestDeliveryAckFailure:
    """Regression: a delivery whose ack raised was dropped from the
    deadline sweep while its message stayed LOCKED — stranded forever."""

    def make_manager(self):
        injector = FaultInjector()
        clock = SimulatedClock(start=0.0)
        broker = QueueBroker(Database(clock=clock, faults=injector))
        broker.create_queue("jobs")
        manager = DeliveryManager(broker, "jobs", ack_timeout=30.0)
        return injector, clock, broker, manager

    def test_failed_batch_ack_is_redelivered_after_the_deadline(self):
        injector, clock, broker, manager = self.make_manager()
        broker.publish_batch("jobs", [{"n": i} for i in range(3)])
        injector.arm(BROKER_ACK, raise_fault(), policy=on_hit(1))
        with pytest.raises(FaultInjectedError):
            manager.process_batch(lambda message: None)
        locked = list(broker.queue("jobs").browse(include_locked=True))
        assert len(locked) == 3 and broker.queue("jobs").depth() == 0
        clock.advance(100.0)
        redelivered = []
        assert manager.process_batch(redelivered.append) == 3
        assert [m.attempts for m in redelivered] == [2, 2, 2]
        assert manager.stats["redelivered"] == 3
        assert list(broker.queue("jobs").browse(include_locked=True)) == []

    def test_failed_explicit_ack_stays_pending(self):
        injector, clock, broker, manager = self.make_manager()
        broker.publish("jobs", {"n": 1})
        message = manager.deliver()
        injector.arm(BROKER_ACK, raise_fault(), policy=on_hit(1))
        with pytest.raises(FaultInjectedError):
            manager.ack(message.message_id)
        manager.ack(message.message_id)  # still awaiting ack: retry works
        assert manager.stats["acked"] == 1
        assert list(broker.queue("jobs").browse(include_locked=True)) == []
