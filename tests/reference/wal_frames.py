"""Reference encoding of one journal record, as the journal first wrote it.

``to_json`` and ``encode_frame`` are the v1 / v2 / v3 payload and
framing functions the journal used before it framed records at append
time, kept verbatim (``to_json`` was a :class:`~repro.db.wal.LogRecord`
method; here it takes the record as its first argument).  They build a
fresh ``json.dumps`` per record, frame a ``str`` and re-encode it —
slow, but plainly the format.  :func:`reference_frame` is the line they
put on disk for one record: the byte-identity oracle that
``tests/db/test_wal_frames.py`` holds the journal's files to.
"""

from __future__ import annotations

import json
import zlib
from typing import Any

from repro.db.wal import OP_DELETE, OP_UPDATE, WAL_FORMAT_VERSION, LogRecord
from repro.errors import WALError


def to_json(self: LogRecord, version: int = WAL_FORMAT_VERSION) -> str:
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


def encode_frame(payload: str) -> str:
    """Frame one JSON record: ``<length>:<crc32-hex>:<json>\\n``."""
    raw = payload.encode("utf-8")
    return f"{len(raw)}:{zlib.crc32(raw) & 0xFFFFFFFF:08x}:{payload}\n"


def reference_frame(record: LogRecord, version: int) -> bytes:
    """The line a journal of format ``version`` holds for ``record``."""
    payload = to_json(record, version)
    if version >= 2:
        return encode_frame(payload).encode("utf-8")
    return (payload + "\n").encode("utf-8")
