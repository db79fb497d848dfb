"""Write-ahead log — the database *journal*.

The WAL serves two masters:

1. **Durability / recovery** (paper §2.2.b.ii.3): every mutation is
   logged before it is applied; on crash, committed work is replayed
   from the durable prefix of the log (see :mod:`repro.db.recovery`).
2. **Journal-based event capture** (paper §2.2.a.ii): an asynchronous
   *log miner* reads committed records through :class:`JournalReader`
   and turns them into events without adding any work to the foreground
   transaction path — the architectural contrast benchmarked in EXP-1.

Durability is modeled explicitly so crash tests are honest: records
appended but not yet flushed are lost by :meth:`WriteAheadLog.crash`.
With ``sync_policy="commit"`` (the default) the database flushes on
every commit, so committed work always survives; with
``sync_policy="none"`` flushing is manual and a crash may lose
committed-but-unflushed transactions — the classic trade the tutorial's
"performance vs recoverability" bullet points at.

**On-disk format.** Framed journals start with a ``%REPRO-WAL <v>``
header line; every record is one *frame* — a line of the form
``<length>:<crc32-hex>:<json>`` where ``length`` is the byte length of
the JSON payload and the CRC covers those bytes.  Version 3 (new files)
journals each change as a delta — an update carries only the columns it
changed, a delete only its rowid (:meth:`LogRecord.to_json`) — while the
in-memory records keep full row images; recovery rebuilds the images of
the records it replays from the rows they change.  Version 2 records
carry full images on disk too.  Loading a journal is therefore an
*analysis pass*, not a trusting parse:

* a **torn tail** — invalid bytes after the last decodable commit
  (truncated or garbled final frame, the signature of dying mid-write)
  — is truncated away with a :class:`~repro.errors.TornTailWarning`,
  and recovery proceeds from the intact prefix;
* **mid-log corruption** — a frame that fails its checksum while a
  *committed* frame follows it — is unrecoverable without losing
  committed work, so it raises :class:`~repro.errors.RecoveryError`
  naming the expected LSN and byte offset.

Files without the header are legacy plain-JSONL (v1) journals.  A v1 or
v2 file replays with the same torn-tail analysis and keeps appending in
its own format, so one file never mixes formats.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import (
    FaultInjectedError,
    RecoveryError,
    StreamError,
    TornTailWarning,
    WALError,
)
from repro.obs.metrics import UNPUBLISHED, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.faults import FaultContext, FaultInjector

# Record operation names.
OP_BEGIN = "begin"
OP_COMMIT = "commit"
OP_ABORT = "abort"
OP_INSERT = "insert"
OP_UPDATE = "update"
OP_DELETE = "delete"
OP_CREATE_TABLE = "create_table"
OP_DROP_TABLE = "drop_table"
OP_CREATE_INDEX = "create_index"
OP_CREATE_TRIGGER = "create_trigger"
OP_DROP_TRIGGER = "drop_trigger"
OP_CHECKPOINT = "checkpoint"
#: ``ROLLBACK TO <savepoint>``: the transaction's DML/DDL records after
#: ``meta["lsn"]`` (where the journal stood at the savepoint) are void.
OP_ROLLBACK_TO = "rollback_to"

DML_OPS = frozenset({OP_INSERT, OP_UPDATE, OP_DELETE})
DDL_OPS = frozenset(
    {
        OP_CREATE_TABLE,
        OP_DROP_TABLE,
        OP_CREATE_INDEX,
        OP_CREATE_TRIGGER,
        OP_DROP_TRIGGER,
    }
)

WAL_MAGIC = "%REPRO-WAL"
WAL_FORMAT_VERSION = 3
WAL_HEADER = f"{WAL_MAGIC} {WAL_FORMAT_VERSION}\n"
_HEADERS = {version: f"{WAL_MAGIC} {version}\n".encode() for version in (2, 3)}
#: Suffix of the sibling file a reclaim writes before renaming it over
#: the journal (:meth:`WriteAheadLog.truncate_before`).
RECLAIM_SUFFIX = ".reclaim"


@dataclass(frozen=True)
class LogRecord:
    """One journal entry.

    ``before``/``after`` carry full row images for DML; ``meta`` carries
    schema payloads for DDL and the table snapshot for checkpoints.
    ``ts`` is the database-clock time the record was written — journal
    miners use it as the change's event time.  Only a record read back
    from a v3 file holds partial images, and then only until redo
    rebuilds them (records of transactions that did not commit, or that
    a ``ROLLBACK TO`` voided, keep the delta, and no journal reader ever
    returns them).
    """

    lsn: int
    txid: int
    op: str
    table: str | None = None
    rowid: int | None = None
    before: dict[str, Any] | None = None
    after: dict[str, Any] | None = None
    meta: dict[str, Any] = field(default_factory=dict)
    ts: float = 0.0

    def to_json(self, version: int = WAL_FORMAT_VERSION) -> str:
        """Serialize for an on-disk journal of format ``version``.

        v1 and v2 write every field and full row images.  v3 writes the
        change and leaves out empty fields: an insert carries its full
        row, an update only the columns whose value changed (their
        before and after values), a delete only its rowid.

        Values must round-trip through JSON *faithfully*: stringifying
        unserializable values (``default=str``) would let recovery
        resurrect rows whose types silently differ from what was
        committed, so unserializable values are rejected instead.
        """

        def reject(value: Any) -> Any:
            raise WALError(
                f"cannot journal: value of type {type(value).__name__} "
                f"({value!r}) does not round-trip through JSON",
                lsn=self.lsn,
                op=self.op,
                table=self.table,
                rowid=self.rowid,
            )

        if version < 3:
            data = {
                "lsn": self.lsn,
                "txid": self.txid,
                "op": self.op,
                "table": self.table,
                "rowid": self.rowid,
                "before": self.before,
                "after": self.after,
                "meta": self.meta,
                "ts": self.ts,
            }
        else:
            data = {"lsn": self.lsn, "txid": self.txid, "op": self.op, "ts": self.ts}
            if self.table is not None:
                data["table"] = self.table
            if self.rowid is not None:
                data["rowid"] = self.rowid
            before, after = self.before, self.after
            if self.op == OP_DELETE:
                before = None
            elif self.op == OP_UPDATE and before is not None and after is not None:
                changed = [
                    column
                    for column, value in after.items()
                    if column not in before
                    or before[column] != value
                    or type(before[column]) is not type(value)
                ]
                before = {column: before[column] for column in changed if column in before}
                after = {column: after[column] for column in changed}
            if before is not None:
                data["before"] = before
            if after is not None:
                data["after"] = after
            if self.meta:
                data["meta"] = self.meta
        return json.dumps(data, separators=(",", ":"), default=reject)

    @classmethod
    def from_json(cls, line: str) -> "LogRecord":
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecoveryError(f"corrupt WAL record: {exc}") from None
        try:
            return cls(
                lsn=data["lsn"],
                txid=data["txid"],
                op=data["op"],
                table=data.get("table"),
                rowid=data.get("rowid"),
                before=data.get("before"),
                after=data.get("after"),
                meta=data.get("meta") or {},
                ts=data.get("ts", 0.0),
            )
        except (KeyError, TypeError) as exc:
            raise RecoveryError(f"corrupt WAL record: {exc!r}") from None


# --------------------------------------------------------------------------
# On-disk framing (versions 2 and 3) and the load-time analysis pass
# --------------------------------------------------------------------------


def _header_version(data: bytes) -> tuple[int, int]:
    """``(format version, header length)`` of a journal file's bytes; a
    file without a header is v1."""
    for version, header in _HEADERS.items():
        if data.startswith(header):
            return version, len(header)
    return 1, 0


def encode_frame(payload: str) -> str:
    """Frame one JSON record: ``<length>:<crc32-hex>:<json>\\n``."""
    raw = payload.encode("utf-8")
    return f"{len(raw)}:{zlib.crc32(raw) & 0xFFFFFFFF:08x}:{payload}\n"


def _decode_frame(line: bytes, version: int) -> tuple[LogRecord | None, str]:
    """Decode one journal line; returns ``(record, "")`` or
    ``(None, reason)``.  Never raises — the scan decides what an
    invalid frame *means* from its position in the file."""
    if version >= 2:
        parts = line.split(b":", 2)
        if len(parts) != 3:
            return None, "malformed frame (missing length/crc prefix)"
        try:
            length = int(parts[0])
            crc = int(parts[1], 16)
        except ValueError:
            return None, "malformed frame (non-numeric length/crc)"
        payload = parts[2]
        if len(payload) != length:
            return None, (
                f"frame length mismatch (header says {length} bytes, "
                f"found {len(payload)})"
            )
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return None, "frame checksum mismatch"
    else:
        payload = line
    try:
        return LogRecord.from_json(payload.decode("utf-8")), ""
    except (RecoveryError, UnicodeDecodeError):
        return None, "frame payload is not a valid record"


def iter_frames(
    data: bytes,
) -> Iterator[tuple[int, int, LogRecord | None]]:
    """Yield ``(start_offset, end_offset, record_or_None)`` for every
    line of a journal file (header excluded).  Used by the load-time
    scan and by fault tooling that needs frame byte positions."""
    version, position = _header_version(data)
    while position < len(data):
        newline = data.find(b"\n", position)
        end = newline if newline != -1 else len(data)
        line = data[position:end]
        next_position = end + 1 if newline != -1 else len(data)
        if line.strip():
            record, _ = _decode_frame(line, version)
            yield position, next_position, record
        position = next_position


@dataclass
class WalLoadReport:
    """What the load-time analysis pass concluded about a journal file."""

    version: int
    records: list[LogRecord] = field(default_factory=list)
    good_bytes: int = 0  # file is valid up to (exclusive) this offset
    torn: bool = False
    torn_reason: str = ""
    dropped_bytes: int = 0


def scan_wal_bytes(data: bytes) -> WalLoadReport:
    """Analyze a journal file's bytes into the recoverable prefix.

    Decodes frames in order.  At the first invalid frame, the remainder
    of the file decides the verdict: if any *later* frame decodes to a
    commit record, committed work lies beyond the damage — mid-log
    corruption, raise :class:`RecoveryError` with the expected LSN and
    byte offset.  Otherwise everything from the invalid frame on is a
    torn tail (at worst uncommitted work written mid-crash) and is
    reported for truncation.
    """
    version, offset = _header_version(data)
    report = WalLoadReport(version=version, good_bytes=offset)
    position = offset
    while position < len(data):
        newline = data.find(b"\n", position)
        end = newline if newline != -1 else len(data)
        line = data[position:end]
        next_position = end + 1 if newline != -1 else len(data)
        if not line.strip():
            position = next_position
            continue
        record, reason = _decode_frame(line, version)
        if record is None:
            _classify_bad_frame(
                data, position, next_position, version, reason, report
            )
            return report
        report.records.append(record)
        report.good_bytes = next_position
        position = next_position
    return report


def _classify_bad_frame(
    data: bytes,
    bad_offset: int,
    resume: int,
    version: int,
    reason: str,
    report: WalLoadReport,
) -> None:
    """Torn tail or mid-log corruption?  Decided by what follows."""
    expected_lsn = report.records[-1].lsn + 1 if report.records else 1
    position = resume
    while position < len(data):
        newline = data.find(b"\n", position)
        end = newline if newline != -1 else len(data)
        line = data[position:end]
        position = end + 1 if newline != -1 else len(data)
        if not line.strip():
            continue
        record, _ = _decode_frame(line, version)
        if record is not None and record.op == OP_COMMIT:
            # A committed transaction lies beyond the damage: silently
            # truncating here would lose committed work.  Fail loudly.
            raise RecoveryError(
                f"mid-log corruption: {reason}, but a committed record "
                "follows — refusing to truncate committed work",
                lsn=expected_lsn,
                byte_offset=bad_offset,
            )
    report.torn = True
    report.torn_reason = reason
    report.dropped_bytes = len(data) - report.good_bytes


class WriteAheadLog:
    """Append-only journal with an explicit durability horizon.

    In-memory by default; pass ``path`` to also persist records to a
    JSON-lines file on each :meth:`flush` (used by the cross-process
    recovery tests).

    **Group commit** (``group_commit_size`` / ``group_commit_window``):
    with ``sync_policy="commit"`` the database calls
    :meth:`commit_point` at every commit.  By default each commit
    flushes immediately (one fsync per transaction — fully durable).
    Raising ``group_commit_size`` to N coalesces flushes so one fsync
    covers up to N committed transactions; ``group_commit_window``
    additionally bounds how long (in clock seconds) the oldest pending
    commit may wait before a flush is forced.  The trade is explicit
    and bounded: a crash may lose at most the last ``N-1`` committed
    transactions (call :meth:`flush` to drain the tail at any barrier).
    """

    def __init__(
        self,
        path: str | None = None,
        sync_policy: str = "commit",
        clock: Any = None,
        *,
        group_commit_size: int = 1,
        group_commit_window: float | None = None,
        faults: "FaultInjector | None" = None,
        metrics: MetricsRegistry = UNPUBLISHED,
    ) -> None:
        if sync_policy not in ("commit", "none", "always"):
            raise ValueError(f"unknown sync_policy {sync_policy!r}")
        if group_commit_size < 1:
            raise ValueError("group_commit_size must be >= 1")
        self.path = path
        self.sync_policy = sync_policy
        self.clock = clock  # optional; records get ts=0.0 without one
        self.faults = faults  # optional fault injector (see repro.faults)
        self.group_commit_size = group_commit_size
        self.group_commit_window = group_commit_window
        self._pending_commits = 0
        self._oldest_pending_ts: float | None = None
        self._records: list[LogRecord] = []
        # JSON lines pre-rendered at append time (file-backed WAL only):
        # validates serializability *before* the record enters the log
        # and moves encoding cost out of the flush critical section.
        self._encoded: dict[int, str] = {}
        self._next_lsn = 1
        self._durable_count = 0
        # New journals use the framed format; attaching to an existing
        # file adopts its version so one file never mixes formats.
        self._format_version = WAL_FORMAT_VERSION
        self.load_report: WalLoadReport | None = None
        # Instruments resolved once; each hot-path touch is one attribute
        # load plus an add.
        self._m_appends = metrics.counter("wal.appends")
        self._m_fsyncs = metrics.counter("wal.fsyncs")
        self._m_bytes = metrics.counter("wal.bytes")
        self._m_batch = metrics.histogram("wal.group_commit_batch")
        if path and os.path.exists(path + RECLAIM_SUFFIX):
            # A reclaim died before its rename, so the journal itself is
            # whole; the half-made copy is garbage.
            os.remove(path + RECLAIM_SUFFIX)
        if path and os.path.exists(path):
            self._load_existing(path)

    def _load_existing(self, path: str) -> None:
        with open(path, "rb") as handle:
            data = handle.read()
        report = scan_wal_bytes(data)  # raises on mid-log corruption
        self._format_version = report.version
        self.load_report = report
        self._records = report.records
        if report.torn:
            warnings.warn(
                f"journal {path!r}: truncating torn tail "
                f"({report.dropped_bytes} bytes after LSN "
                f"{report.records[-1].lsn if report.records else 0}: "
                f"{report.torn_reason})",
                TornTailWarning,
                stacklevel=3,
            )
            with open(path, "r+b") as handle:
                handle.truncate(report.good_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        self._durable_count = len(self._records)
        if self._records:
            self._next_lsn = self._records[-1].lsn + 1

    def _fire(self, name: str, **site: Any) -> "FaultContext | None":
        """Consult the fault injector at failpoint ``name`` (no-op when
        none is attached — the common case costs one attribute read)."""
        if self.faults is None:
            return None
        return self.faults.fire(name, wal=self, **site)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def flush_count(self) -> int:
        """Flushes so far (the ``wal.fsyncs`` counter)."""
        return self._m_fsyncs.value

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    @property
    def first_lsn(self) -> int:
        """LSN of the oldest *retained* record — greater than 1 once
        :meth:`truncate_before` has reclaimed a prefix.  An empty (or
        fully truncated) journal reports ``last_lsn + 1``: nothing is
        retained, so history reaches back only to the tail."""
        if self._records:
            return self._records[0].lsn
        return self._next_lsn

    @property
    def durable_lsn(self) -> int:
        """LSN of the last record guaranteed to survive a crash."""
        if self._durable_count == 0:
            return 0
        return self._records[self._durable_count - 1].lsn

    def append(
        self,
        txid: int,
        op: str,
        *,
        table: str | None = None,
        rowid: int | None = None,
        before: dict[str, Any] | None = None,
        after: dict[str, Any] | None = None,
        meta: dict[str, Any] | None = None,
    ) -> LogRecord:
        """Append one record; returns it with its assigned LSN."""
        self._fire("wal.append", op=op, txid=txid, table=table, rowid=rowid)
        self._m_appends.inc()
        record = LogRecord(
            lsn=self._next_lsn,
            txid=txid,
            op=op,
            table=table,
            rowid=rowid,
            before=before,
            after=after,
            meta=meta or {},
            ts=self.clock.now() if self.clock is not None else 0.0,
        )
        if self.path is not None:
            # Append-time validation: a record that cannot be journaled
            # faithfully must fail *now*, inside the owning transaction,
            # not later at an unrelated commit's flush.
            self._encoded[record.lsn] = record.to_json(self._format_version)
        self._next_lsn += 1
        self._records.append(record)
        if self.sync_policy == "always":
            self.flush()
        return record

    def commit_point(self) -> None:
        """Register one committed transaction; flush per group-commit
        policy (called by the database when ``sync_policy="commit"``)."""
        self._pending_commits += 1
        if self._oldest_pending_ts is None and self.clock is not None:
            self._oldest_pending_ts = self.clock.now()
        if self._pending_commits >= self.group_commit_size:
            self.flush()
        elif (
            self.group_commit_window is not None
            and self._oldest_pending_ts is not None
            and self.clock is not None
            and self.clock.now() - self._oldest_pending_ts
            >= self.group_commit_window
        ):
            self.flush()

    @property
    def pending_commits(self) -> int:
        """Committed transactions not yet covered by a flush."""
        return self._pending_commits

    def _frame_for(self, record: LogRecord) -> str:
        payload = self._encoded.pop(record.lsn, None) or record.to_json(
            self._format_version
        )
        if self._format_version >= 2:
            return encode_frame(payload)
        return payload + "\n"

    def flush(self) -> None:
        """Make every appended record durable (simulated fsync).

        Failpoints: ``wal.pre_flush`` before any I/O, ``wal.post_flush``
        after the tail became durable, and ``wal.flush.torn`` — a
        :func:`repro.faults.torn_write` action armed there makes this
        flush write only part (or a corrupted copy) of its final frame
        and raise, modeling a crash mid-write; the in-memory instance
        must then be abandoned and recovery run from the file.
        """
        batch = self._pending_commits
        self._pending_commits = 0
        self._oldest_pending_ts = None
        if self._durable_count == len(self._records):
            return
        self._fire("wal.pre_flush")
        if self.path:
            frames = [
                self._frame_for(record)
                for record in self._records[self._durable_count :]
            ]
            torn = self._fire("wal.flush.torn", frames=frames)
            with open(self.path, "ab") as handle:
                if handle.tell() == 0 and self._format_version >= 2:
                    handle.write(_HEADERS[self._format_version])
                data = "".join(frames).encode("utf-8")
                if torn is not None and torn.result is not None:
                    data = self._tear(data, frames[-1], torn.result)
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            self._m_bytes.inc(len(data))
            if torn is not None and torn.result is not None:
                raise FaultInjectedError(
                    f"torn write ({torn.result['mode']}) during flush",
                    failpoint="wal.flush.torn",
                )
        self._durable_count = len(self._records)
        self._m_fsyncs.inc()
        if batch:
            # Commits covered by this one fsync — the group-commit
            # amortization EXP-2 sweeps; 1 means no coalescing happened.
            self._m_batch.observe(batch)
        self._fire("wal.post_flush")

    @staticmethod
    def _tear(data: bytes, last_frame: str, directive: dict[str, Any]) -> bytes:
        """Apply a torn-write directive to the batch about to be written."""
        last_length = len(last_frame.encode("utf-8"))
        if directive["mode"] == "truncate":
            # Default tear point: halfway through the final frame.
            drop = directive.get("drop_bytes") or max(1, last_length // 2)
            drop = min(drop, len(data))
            return data[: len(data) - drop]
        # "corrupt": full length, but one byte inside the final frame's
        # payload is flipped (never its newline — line structure holds).
        target = len(data) - max(2, last_length // 2)
        return data[:target] + bytes([data[target] ^ 0x55]) + data[target + 1 :]

    def crash(self) -> list[LogRecord]:
        """Simulate a crash: drop non-durable records and return the
        durable prefix (what recovery will see)."""
        self._records = self._records[: self._durable_count]
        self._encoded = {}
        self._pending_commits = 0
        self._oldest_pending_ts = None
        if self._records:
            self._next_lsn = self._records[-1].lsn + 1
        else:
            self._next_lsn = 1
        return list(self._records)

    def retain(self, records: list[LogRecord]) -> None:
        """Keep only ``records`` in memory: recovery from a v3 file
        hands back the durable records from the newest checkpoint on,
        with the images redo rebuilt.  Older records are not kept (redo
        could not rebuild their images), so :attr:`first_lsn` becomes
        the checkpoint's and a reader below it raises."""
        self._records = records
        self._durable_count = len(records)

    def records(self, *, durable_only: bool = False) -> list[LogRecord]:
        if durable_only:
            return list(self._records[: self._durable_count])
        return list(self._records)

    def records_from(self, lsn: int) -> Iterator[LogRecord]:
        """Yield records with LSN strictly greater than ``lsn``."""
        # Records are LSN-ordered; binary search would work but the
        # journal reader always resumes near the tail, so scan from an
        # estimated offset.
        start = min(max(lsn, 0), len(self._records))
        while start > 0 and self._records[start - 1].lsn > lsn:
            start -= 1
        for record in self._records[start:]:
            if record.lsn > lsn:
                yield record

    def truncate_before(self, lsn: int) -> int:
        """Drop records with LSN < ``lsn`` (post-checkpoint log reclaim).
        Returns the number of records dropped.

        A file-backed journal is replaced, never rewritten in place: the
        kept durable records are written in the file's own format to a
        sibling (``<path>.reclaim``), which is fsynced and renamed over
        the journal, and then the directory is fsynced.  A crash at any
        point leaves the old journal or the new one, and the next open
        deletes a leftover sibling.  Failpoint ``wal.truncate`` fires
        with ``stage="synced"`` (sibling durable, journal untouched) and
        ``stage="renamed"`` (journal replaced, rename not yet durable).
        """
        kept = [record for record in self._records if record.lsn >= lsn]
        dropped = len(self._records) - len(kept)
        durable = max(0, self._durable_count - dropped)
        if self.path:
            self._replace_file(kept[:durable])
        self._records = kept
        self._durable_count = durable
        return dropped

    def _replace_file(self, records: list[LogRecord]) -> None:
        sibling = self.path + RECLAIM_SUFFIX
        with open(sibling, "wb") as handle:
            if self._format_version >= 2:
                handle.write(_HEADERS[self._format_version])
            handle.write(
                "".join(self._frame_for(record) for record in records).encode("utf-8")
            )
            handle.flush()
            os.fsync(handle.fileno())
        self._fire("wal.truncate", stage="synced")
        os.replace(sibling, self.path)
        self._fire("wal.truncate", stage="renamed")
        directory = os.open(os.path.dirname(os.path.abspath(self.path)), os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


class JournalReader:
    """Cursor over the committed suffix of the journal.

    This is the substrate for journal-based ("log mining") event
    capture: the reader remembers its position and, on each poll,
    returns DML records of transactions whose commit record it has seen.
    Records of uncommitted or aborted transactions, and records a
    ``ROLLBACK TO`` undid, are never surfaced.

    A reader never skips records silently: when the journal no longer
    holds the records right after its position (a reclaim, or a
    reopened v3 journal, which keeps nothing below its newest
    checkpoint), creating or polling it raises :class:`StreamError`.
    """

    def __init__(self, wal: WriteAheadLog, start_lsn: int = 0) -> None:
        self._wal = wal
        self._position = start_lsn
        # DML records of transactions whose fate we have not yet seen.
        self._pending: dict[int, list[LogRecord]] = {}
        self._check_reach()

    @property
    def position(self) -> int:
        """LSN up to which this reader has consumed the journal."""
        return self._position

    def _check_reach(self) -> None:
        first = self._wal.first_lsn
        if self._position + 1 < first:
            raise StreamError(
                f"journal no longer reaches back to LSN {self._position}: "
                f"records before LSN {first} are gone (log reclaim, or a "
                "reopened journal's checkpoint); resume from a checkpoint "
                f"snapshot with start_lsn >= {first - 1}"
            )

    def poll(self) -> list[LogRecord]:
        """Return newly committed DML records, in commit order."""
        self._check_reach()
        committed: list[LogRecord] = []
        for record in self._wal.records_from(self._position):
            self._position = record.lsn
            if record.op in DML_OPS or record.op in DDL_OPS:
                self._pending.setdefault(record.txid, []).append(record)
            elif record.op == OP_COMMIT:
                committed.extend(self._pending.pop(record.txid, []))
            elif record.op == OP_ABORT:
                self._pending.pop(record.txid, None)
            elif record.op == OP_ROLLBACK_TO:
                changes = self._pending.get(record.txid, [])
                while changes and changes[-1].lsn > record.meta["lsn"]:
                    changes.pop()
        return committed
