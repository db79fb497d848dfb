"""Crash recovery: WAL analysis and redo, plus schema serialization.

Recovery is redo-only: the storage layer applies mutations only after
they are journaled, and rollback happens logically through undo entries
*before* commit, so an uncommitted transaction's effects never need to
be undone at recovery time — we simply do not redo them.

The protocol (classic ARIES-lite, simplified by consistent checkpoints):

1. **Analysis** — scan the durable log, find the last checkpoint and
   the set of committed transaction ids after it.
2. **Redo** — restore the checkpoint snapshot (if any), then reapply,
   in LSN order, every DDL/DML record whose transaction committed and
   that no ``ROLLBACK TO`` undid (rebuilding the full row images a v3
   journal leaves off disk).

Aborted and in-flight transactions are skipped entirely, which yields
the two correctness properties EXP-10 checks: *no committed write is
lost* and *no uncommitted write survives*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.db.expr import Expression, expression_from_dict, expression_to_dict
from repro.db.schema import Column, TableSchema
from repro.db.types import type_by_name
from repro.db.wal import (
    DDL_OPS,
    DML_OPS,
    OP_ABORT,
    OP_CHECKPOINT,
    OP_COMMIT,
    OP_ROLLBACK_TO,
    LogRecord,
)
from repro.errors import RecoveryError

# --------------------------------------------------------------------------
# Schema (de)serialization — needed to replay CREATE TABLE records
# --------------------------------------------------------------------------


def schema_to_dict(schema: TableSchema) -> dict[str, Any]:
    """JSON-stable form of a table schema (callable defaults excluded:
    they are evaluated at insert time and every journaled insert carries
    its whole row — later updates log only the columns they change — so
    recovery never needs to re-run a default)."""
    return {
        "name": schema.name,
        "columns": [
            {
                "name": column.name,
                "type": column.col_type.name,
                "nullable": column.nullable,
                "primary_key": column.primary_key,
                "unique": column.unique,
                "default": None if callable(column.default) else column.default,
            }
            for column in schema.columns
        ],
        "checks": [expression_to_dict(check) for check in schema.checks],
    }


def schema_from_dict(data: Mapping[str, Any]) -> TableSchema:
    """Rebuild a :class:`TableSchema` from :func:`schema_to_dict` output."""
    columns = [
        Column(
            name=column["name"],
            col_type=type_by_name(column["type"]),
            nullable=column["nullable"],
            primary_key=column["primary_key"],
            unique=column["unique"],
            default=column.get("default"),
        )
        for column in data["columns"]
    ]
    checks: list[Expression] = [
        expression_from_dict(check) for check in data.get("checks", [])
    ]
    return TableSchema(data["name"], columns, checks)


# --------------------------------------------------------------------------
# Analysis + redo plan
# --------------------------------------------------------------------------


@dataclass
class RecoveryPlan:
    """Everything the database needs to rebuild state after a crash."""

    checkpoint: LogRecord | None = None
    redo_records: list[LogRecord] = field(default_factory=list)
    committed_txids: set[int] = field(default_factory=set)
    aborted_txids: set[int] = field(default_factory=set)
    inflight_txids: set[int] = field(default_factory=set)
    max_txid: int = 0
    max_lsn: int = 0


def analyze(records: list[LogRecord]) -> RecoveryPlan:
    """Build the redo plan from the durable log prefix."""
    plan = RecoveryPlan()
    checkpoint_index = -1
    for position, record in enumerate(records):
        if record.op == OP_CHECKPOINT:
            plan.checkpoint = record
            checkpoint_index = position
    tail = records[checkpoint_index + 1 :]

    seen: set[int] = set()
    # LSNs of records a ROLLBACK TO undid (rare: found by walking back
    # from the marker to its savepoint).
    void: set[int] = set()
    for position, record in enumerate(tail):
        plan.max_lsn = max(plan.max_lsn, record.lsn)
        plan.max_txid = max(plan.max_txid, record.txid)
        seen.add(record.txid)
        if record.op == OP_COMMIT:
            plan.committed_txids.add(record.txid)
        elif record.op == OP_ABORT:
            plan.aborted_txids.add(record.txid)
        elif record.op == OP_ROLLBACK_TO:
            earlier = position - 1
            while earlier >= 0 and tail[earlier].lsn > record.meta["lsn"]:
                if tail[earlier].txid == record.txid:
                    void.add(tail[earlier].lsn)
                earlier -= 1
    plan.inflight_txids = seen - plan.committed_txids - plan.aborted_txids

    plan.redo_records = [
        record
        for record in tail
        if (record.op in DML_OPS or record.op in DDL_OPS)
        and record.txid in plan.committed_txids
        and record.lsn not in void
    ]
    return plan


def verify_redo_record(record: LogRecord) -> None:
    """Sanity-check a redo record before applying it.

    Raised errors carry structured context (``lsn``/``op``/``table``/
    ``rowid``) so harnesses can assert on *which* record was rejected.
    """
    if record.op in DML_OPS:
        if record.table is None or record.rowid is None:
            raise RecoveryError(
                "malformed DML record: missing table/rowid",
                lsn=record.lsn,
                op=record.op,
                table=record.table,
                rowid=record.rowid,
            )
        if record.op != "delete" and record.after is None:
            raise RecoveryError(
                "malformed record: missing row image",
                lsn=record.lsn,
                op=record.op,
                table=record.table,
                rowid=record.rowid,
            )
    elif record.op in DDL_OPS:
        if record.op == "create_table" and "schema" not in record.meta:
            raise RecoveryError(
                "malformed create_table record: missing schema",
                lsn=record.lsn,
                op=record.op,
                table=record.table,
            )
