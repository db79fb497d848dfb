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

**Memory.** A file-backed journal keeps in memory only what someone
still needs: the records not yet flushed, the records of transactions
still open, and the durable records a live :class:`JournalReader` has
not yet read past.  Everything older is served from the file
(:meth:`WriteAheadLog.records_from`), so a long run's memory does not
grow with its history.  An in-memory journal keeps every record: its
list is its disk.

**On-disk format.** Framed journals start with a ``%REPRO-WAL <v>``
header line; every record is one *frame* — a line of the form
``<length>:<crc32-hex>:<json>`` where ``length`` is the byte length of
the JSON payload and the CRC covers those bytes.  Version 3 (new files)
journals each change as a delta — an update carries only the columns it
changed, a delete only its rowid (:meth:`LogRecord.to_json`) — while the
in-memory records keep full row images; whoever reads the file back
(recovery, or a reader of history) rebuilds the images by redo.
Version 2 records carry full images on disk too.  Loading a journal is
therefore an *analysis pass*, not a trusting parse:

* a **torn tail** — invalid bytes after the last decodable commit
  (truncated or garbled final frame, the signature of dying mid-write)
  — is truncated away with a :class:`~repro.errors.TornTailWarning`,
  and recovery proceeds from the intact prefix;
* **mid-log corruption** — a frame that fails its checksum while a
  *committed* frame follows it — is unrecoverable without losing
  committed work, so it raises :class:`~repro.errors.RecoveryError`
  naming the expected LSN and byte offset.

A record is encoded and framed once, when it is appended
(:func:`frame_record`), which is also where a value JSON cannot carry
is refused; a flush joins the queued frames, writes them and fsyncs.

Files without the header are legacy plain-JSONL (v1) journals.  A v1 or
v2 file replays with the same torn-tail analysis and keeps appending in
its own format, so one file never mixes formats.
"""

from __future__ import annotations

import json
import os
import warnings
import weakref
import zlib
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
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

_new_record = object.__new__
_set_attribute = object.__setattr__


_CONTROL_OPS = frozenset({OP_BEGIN, OP_COMMIT, OP_ABORT})
# ``%r`` of an int and of a finite float is what json writes for them.
_CONTROL_FORMATS = {
    False: '{"lsn":%r,"txid":%r,"op":"%s","table":null,"rowid":null,'
    '"before":null,"after":null,"meta":{},"ts":%r}',
    True: '{"lsn":%r,"txid":%r,"op":"%s","ts":%r}',
}


class _Unjournalable(Exception):
    """A value JSON cannot represent (raised by the encoder's hook)."""

    def __init__(self, value: Any) -> None:
        super().__init__(value)
        self.value = value


def _reject(value: Any) -> Any:
    raise _Unjournalable(value)


# The one JSON encoder every record goes through, built once:
# ``json.dumps`` builds an encoder and a ``default`` closure per call.
# Same options as ``json.dumps(separators=(",", ":"))`` (ASCII only, so
# a payload's characters are its bytes), except that it keeps no table
# of containers it is inside: a value that contains itself recurses to
# the interpreter's limit instead, and ``to_json`` turns both failures
# into a WALError.  ``_encode_json(value, 0)`` returns the text's chunks.
_encode_json = c_make_encoder(
    None, _reject, encode_basestring_ascii, None, ":", ",", False, False, True
)


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

        BEGIN / COMMIT / ABORT are formatted directly; every other
        record goes through the module's one JSON encoder, with the
        options of ``json.dumps(separators=(",", ":"))``, so the text is
        the same either way.

        Values must round-trip through JSON *faithfully*: stringifying
        unserializable values (``default=str``) would let recovery
        resurrect rows whose types silently differ from what was
        committed, so unserializable values are rejected instead.
        """
        ts = self.ts
        if (
            self.op in _CONTROL_OPS
            and type(self.lsn) is int
            and type(self.txid) is int
            and type(ts) is float
            and ts - ts == 0.0  # finite: json spells inf and nan its own way
            and self.table is None
            and self.rowid is None
            and self.before is None
            and self.after is None
            and not self.meta
        ):
            return _CONTROL_FORMATS[version >= 3] % (self.lsn, self.txid, self.op, ts)
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
                "ts": ts,
            }
        else:
            data = {"lsn": self.lsn, "txid": self.txid, "op": self.op, "ts": ts}
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
        try:
            return "".join(_encode_json(data, 0))
        except _Unjournalable as exc:
            reason = (
                f"value of type {type(exc.value).__name__} ({exc.value!r}) "
                "does not round-trip through JSON"
            )
        except RecursionError:
            reason = "value nests too deeply (or contains itself) for JSON"
        raise WALError(
            f"cannot journal: {reason}",
            lsn=self.lsn,
            op=self.op,
            table=self.table,
            rowid=self.rowid,
        )

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


def frame_record(record: LogRecord, version: int) -> bytes:
    """One journal line for ``record`` in format ``version``: for v2 and
    v3 the frame ``<length>:<crc32-hex>:<json>\\n``, for v1 the bare
    JSON line.  The journal builds it once, at append."""
    raw = record.to_json(version).encode()
    if version >= 2:
        return b"%d:%08x:%s\n" % (len(raw), zlib.crc32(raw), raw)
    return raw + b"\n"


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

    In-memory by default; pass ``path`` to persist records to a framed
    file on each :meth:`flush`, after which memory keeps only what is
    still needed (module docstring, "Memory"; :attr:`memory_records`).
    ``len()``, :attr:`first_lsn` and :attr:`durable_lsn` describe the
    whole journal, file included.

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
        # The journal's newest records, LSN-contiguous up to last_lsn:
        # every record of an in-memory journal; for a file-backed one,
        # the unflushed tail plus what _release() has not dropped yet.
        self._records: list[LogRecord] = []
        # The unflushed tail's lines, framed at append (file-backed WAL
        # only): validates serializability *before* the record enters
        # the log, and leaves flush a join, a write and an fsync.
        self._frames: list[bytes] = []
        self._next_lsn = 1
        self._durable_lsn = 0
        # How many durable records the journal holds, and the oldest
        # one's LSN (meaningful only while there is one).
        self._durable_records = 0
        self._base_lsn = 1
        # BEGIN LSN of each transaction that has neither committed nor
        # aborted, oldest first: memory keeps its records, because a
        # reader of history could not rebuild their images from a file
        # that does not yet say whether they commit.
        self._open: dict[int, int] = {}
        #: The live readers; each pins the records after its position.
        self._readers: weakref.WeakSet[JournalReader] = weakref.WeakSet()
        # What the last load decoded, until the owner takes it for redo.
        self._loaded: list[LogRecord] = []
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
        metrics.gauge_fn("wal.memory_records", lambda: self.memory_records)
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
        records, report.records = report.records, []
        self.load_report = report
        if report.torn:
            warnings.warn(
                f"journal {path!r}: truncating torn tail "
                f"({report.dropped_bytes} bytes after LSN "
                f"{records[-1].lsn if records else 0}: "
                f"{report.torn_reason})",
                TornTailWarning,
                stacklevel=3,
            )
            with open(path, "r+b") as handle:
                handle.truncate(report.good_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        self._loaded = records
        self._durable_records = len(records)
        if records:
            self._base_lsn = records[0].lsn
            self._durable_lsn = records[-1].lsn
            self._next_lsn = self._durable_lsn + 1

    def recovered_records(self) -> list[LogRecord]:
        """The durable records the last open (or :meth:`crash`) read
        from the file, as they are on disk, for the owner's redo.  They
        are handed over once and not kept."""
        records, self._loaded = self._loaded, []
        return records

    def _fire(self, name: str, **site: Any) -> "FaultContext | None":
        """Consult the fault injector at failpoint ``name`` (no-op when
        none is attached — the common case costs one attribute read)."""
        if self.faults is None:
            return None
        return self.faults.fire(name, wal=self, **site)

    def __len__(self) -> int:
        """Records in the journal: the durable ones plus the unflushed
        tail."""
        return self._durable_records + self._next_lsn - 1 - self._durable_lsn

    @property
    def memory_records(self) -> int:
        """Records held in memory (the ``wal.memory_records`` gauge)."""
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
        """LSN of the journal's oldest record: 1 until
        :meth:`truncate_before` reclaims a prefix, then the first record
        it kept.  An empty (or fully truncated) journal reports
        ``last_lsn + 1``: history reaches back only to the tail."""
        if self._durable_records:
            return self._base_lsn
        if self._records:
            return self._records[0].lsn
        return self._next_lsn

    @property
    def durable_lsn(self) -> int:
        """LSN of the last record guaranteed to survive a crash."""
        return self._durable_lsn

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
        """Append one record; returns it with its assigned LSN.

        The record holds ``before`` / ``after`` / ``meta`` as given, not
        copies: the caller hands them over and does not touch them
        again (the database's DML core passes the row it built or the
        one the table released).
        """
        self._fire("wal.append", op=op, txid=txid, table=table, rowid=rowid)
        self._m_appends.inc()
        # Given its __dict__ whole: the frozen dataclass's __init__ sets
        # each field with its own object.__setattr__ call.
        record = _new_record(LogRecord)
        _set_attribute(
            record,
            "__dict__",
            {
                "lsn": self._next_lsn,
                "txid": txid,
                "op": op,
                "table": table,
                "rowid": rowid,
                "before": before,
                "after": after,
                "meta": meta or {},
                "ts": self.clock.now() if self.clock is not None else 0.0,
            },
        )
        if self.path is not None:
            # Append-time validation: a record that cannot be journaled
            # faithfully must fail *now*, inside the owning transaction,
            # not later at an unrelated commit's flush.
            self._frames.append(frame_record(record, self._format_version))
        self._next_lsn += 1
        self._records.append(record)
        if op == OP_BEGIN:
            self._open[txid] = record.lsn
        elif op == OP_COMMIT or op == OP_ABORT:
            self._open.pop(txid, None)
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

    def flush(self) -> None:
        """Make every appended record durable (simulated fsync).

        Failpoints: ``wal.pre_flush`` before any I/O, ``wal.post_flush``
        after the tail became durable, and ``wal.flush.torn`` — a
        :func:`repro.faults.torn_write` action armed there makes this
        flush write only part (or a corrupted copy) of its final frame
        and raise, modeling a crash mid-write; the in-memory instance
        must then be abandoned and recovery run from the file.

        Every flush, even one with nothing to write, then releases what
        a file-backed journal's memory no longer needs to hold (see
        :class:`WriteAheadLog`).
        """
        batch = self._pending_commits
        self._pending_commits = 0
        self._oldest_pending_ts = None
        last = self._next_lsn - 1
        if last == self._durable_lsn:
            self._release()
            return
        self._fire("wal.pre_flush")
        if self.path:
            # The frames stay queued until the write succeeds.
            frames = self._frames
            torn = self._fire("wal.flush.torn", frames=frames)
            data = b"".join(frames)
            if torn is not None and torn.result is not None:
                data = self._tear(data, frames[-1], torn.result)
            with open(self.path, "ab") as handle:
                if handle.tell() == 0 and self._format_version >= 2:
                    handle.write(_HEADERS[self._format_version])
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            self._m_bytes.inc(len(data))
            if torn is not None and torn.result is not None:
                raise FaultInjectedError(
                    f"torn write ({torn.result['mode']}) during flush",
                    failpoint="wal.flush.torn",
                )
            self._frames = []
        if not self._durable_records:
            self._base_lsn = self._durable_lsn + 1
        self._durable_records += last - self._durable_lsn
        self._durable_lsn = last
        self._m_fsyncs.inc()
        if batch:
            # Commits covered by this one fsync — the group-commit
            # amortization EXP-2 sweeps; 1 means no coalescing happened.
            self._m_batch.observe(batch)
        self._release()
        self._fire("wal.post_flush")

    def _release(self) -> None:
        """Drop from a file-backed journal's memory the durable records
        at or below the lowest position anyone still reads from: a live
        reader's, or the one just before the oldest open transaction.
        With neither, that is every durable record."""
        if self.path is None:
            return
        floor = self._durable_lsn
        if self._open:
            floor = min(floor, next(iter(self._open.values())) - 1)
        for reader in self._readers:
            floor = min(floor, reader.position)
        records = self._records
        if records and floor >= records[0].lsn:
            del records[: floor + 1 - records[0].lsn]

    @staticmethod
    def _tear(data: bytes, last_frame: bytes, directive: dict[str, Any]) -> bytes:
        """Apply a torn-write directive to the batch about to be written."""
        last_length = len(last_frame)
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
        durable journal (what recovery will see).  A file-backed journal
        is read back from its file, exactly as a reopen reads it."""
        self._frames = []
        self._pending_commits = 0
        self._oldest_pending_ts = None
        self._open = {}
        if self.path is None:
            unflushed = self._next_lsn - 1 - self._durable_lsn
            del self._records[len(self._records) - unflushed :]
            self._next_lsn = self._durable_lsn + 1
            return list(self._records)
        self._records = []
        self._next_lsn, self._durable_lsn, self._durable_records = 1, 0, 0
        if os.path.exists(self.path):
            self._load_existing(self.path)
        return self.recovered_records()

    def records(self) -> list[LogRecord]:
        """Every record in the journal, oldest first."""
        return self.records_from(self.first_lsn - 1)

    def records_from(self, lsn: int) -> list[LogRecord]:
        """The records with LSN strictly greater than ``lsn``, full row
        images included.  Those memory no longer holds come from the
        file (:meth:`_history`)."""
        records = self._records
        first = records[0].lsn if records else self._next_lsn
        if lsn + 1 >= first:
            return records[lsn + 1 - first :]
        if self.path is None:
            return records[:]
        return self._history(lsn, first) + records

    def _history(self, after: int, before: int) -> list[LogRecord]:
        """The file's records with ``after < lsn < before``, with the full
        row images a v3 file leaves off disk rebuilt by redo.  The replay
        starts from the newest checkpoint at or below ``after``, or from
        the file's first record.  It reads the whole file: analysis must
        see the fate of every transaction, and each one with a record
        below ``before`` has ended (memory keeps the open ones)."""
        from repro.db.recovery import replay_images  # recovery imports this module

        with open(self.path, "rb") as handle:
            records = scan_wal_bytes(handle.read()).records
        start = 0
        for index, record in enumerate(records):
            if record.lsn > after:
                break
            if record.op == OP_CHECKPOINT:
                start = index
        return [
            record
            for record in replay_images(records[start:])
            if after < record.lsn < before
        ]

    def truncate_before(self, lsn: int) -> int:
        """Drop the durable records with LSN < ``lsn`` (post-checkpoint
        log reclaim).  Returns the number of records dropped.

        A file-backed journal is replaced, never rewritten in place: the
        frames it keeps are copied byte for byte, behind the file's own
        header, to a sibling (``<path>.reclaim``), which is fsynced and
        renamed over the journal, and then the directory is fsynced.  A
        crash at any point leaves the old journal or the new one, and
        the next open deletes a leftover sibling.  Failpoint
        ``wal.truncate`` fires with ``stage="synced"`` (sibling durable,
        journal untouched) and ``stage="renamed"`` (journal replaced,
        rename not yet durable).
        """
        lsn = min(lsn, self._durable_lsn + 1)
        records = self._records
        held = min(max(0, lsn - records[0].lsn), len(records)) if records else 0
        dropped = self._replace_file(lsn) if self.path else held
        del records[:held]
        if dropped:
            # LSNs are contiguous, so the oldest record kept is ``lsn``.
            self._durable_records -= dropped
            self._base_lsn = lsn
        return dropped

    def _replace_file(self, lsn: int) -> int:
        """Reclaim the file's frames below ``lsn``; returns how many it
        dropped."""
        if not os.path.exists(self.path):
            return 0
        with open(self.path, "rb") as handle:
            data = handle.read()
        version, keep_from = _header_version(data)
        dropped = 0
        for _start, end, record in iter_frames(data):
            if record is None or record.lsn >= lsn:
                break
            dropped, keep_from = dropped + 1, end
        sibling = self.path + RECLAIM_SUFFIX
        with open(sibling, "wb") as handle:
            if version >= 2:
                handle.write(_HEADERS[version])
            handle.write(data[keep_from:])
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
        return dropped


class JournalReader:
    """Cursor over the committed suffix of the journal.

    This is the substrate for journal-based ("log mining") event
    capture: the reader remembers its position and, on each poll,
    returns DML records of transactions whose commit record it has seen.
    Records of uncommitted or aborted transactions, and records a
    ``ROLLBACK TO`` undid, are never surfaced.

    A reader never skips, it pins what it has not read: while it is
    alive, the journal keeps in memory the records after its position,
    and a reader that starts below what memory holds reads the file.
    Its reach is the journal's first record (``first_lsn``); when the
    records right after its position are gone (a reclaim), creating or
    polling it raises :class:`StreamError`.
    """

    def __init__(self, wal: WriteAheadLog, start_lsn: int = 0) -> None:
        self._wal = wal
        self._position = start_lsn
        # DML records of transactions whose fate we have not yet seen.
        self._pending: dict[int, list[LogRecord]] = {}
        self._check_reach()
        wal._readers.add(self)

    @property
    def position(self) -> int:
        """LSN up to which this reader has consumed the journal."""
        return self._position

    def _check_reach(self) -> None:
        first = self._wal.first_lsn
        if self._position + 1 < first:
            raise StreamError(
                f"journal no longer reaches back to LSN {self._position}: "
                f"records before LSN {first} are gone (log reclaim); "
                "resume from a checkpoint snapshot with "
                f"start_lsn >= {first - 1}"
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
