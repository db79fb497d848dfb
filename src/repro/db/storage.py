"""Heap table storage with index maintenance.

A :class:`HeapTable` stores rows in insertion order keyed by a
monotonically increasing rowid.  It owns the table's indexes and keeps
them consistent on every mutation; UNIQUE constraints are enforced by
unique indexes that the table auto-creates from its schema.

The storage layer is deliberately ignorant of transactions: the
transaction manager above it serializes access via locks and performs
rollback by applying inverse operations recorded in its undo log.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.db.index import HashIndex, Index, OrderedIndex, build_index
from repro.db.schema import TableSchema
from repro.errors import ConstraintViolation, SchemaError

if TYPE_CHECKING:
    from repro.db.columnar import ColumnStore


class HeapTable:
    """One table's rows plus its secondary indexes."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: dict[int, dict[str, Any]] = {}
        self._rowids = itertools.count(1)
        self._column_store: "ColumnStore | None" = None
        self.indexes: dict[str, Index] = {}
        for column_name in schema.unique_columns():
            self.create_index(
                f"uq_{schema.name}_{column_name}",
                column_name,
                kind="hash",
                unique=True,
            )

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    # -- index management ------------------------------------------------

    def create_index(
        self, name: str, column: str, *, kind: str = "ordered", unique: bool = False
    ) -> Index:
        """Create and backfill an index on ``column``."""
        if name in self.indexes:
            raise SchemaError(f"index {name!r} already exists")
        column = self.schema.column(column).name
        index = build_index(kind, name, self.name, column, unique)
        for rowid, row in self._rows.items():
            index.insert(row[column], rowid)
        self.indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise SchemaError(f"index {name!r} does not exist")
        del self.indexes[name]

    def index_on(self, column: str, *, require_range: bool = False) -> Index | None:
        """Find an index covering ``column``, preferring ordered ones
        when a range scan is required."""
        column = column.lower()
        best: Index | None = None
        for index in self.indexes.values():
            if index.column != column:
                continue
            if require_range and not index.supports_range:
                continue
            if best is None or (
                isinstance(index, HashIndex) and not require_range
            ):
                best = index
        return best

    # -- mutations ---------------------------------------------------------

    def insert(self, row: Mapping[str, Any], rowid: int | None = None) -> int:
        """Insert a fully coerced row; returns the assigned rowid.

        ``rowid`` may be forced by recovery replay so that rowids match
        the pre-crash assignment.
        """
        if rowid is None:
            rowid = next(self._rowids)
        else:
            if rowid in self._rows:
                raise ConstraintViolation(
                    "rowid", detail=f"rowid {rowid} already present"
                )
            self._rowids = itertools.count(
                max(rowid + 1, next(self._rowids))
            )
        stored = dict(row)
        self._check_uniqueness(stored, exclude_rowid=None)
        self._rows[rowid] = stored
        for index in self.indexes.values():
            index.insert(stored[index.column], rowid)
        if self._column_store is not None:
            self._column_store.note_insert(rowid, stored)
        return rowid

    def update(self, rowid: int, updates: Mapping[str, Any]) -> dict[str, Any]:
        """Apply coerced column updates to one row; returns the old row."""
        old_row = self.stored(rowid)
        new_row = dict(old_row)
        new_row.update(updates)
        self._check_uniqueness(new_row, exclude_rowid=rowid)
        for index in self.indexes.values():
            old_key = old_row[index.column]
            new_key = new_row[index.column]
            if old_key != new_key or type(old_key) is not type(new_key):
                index.delete(old_key, rowid)
                index.insert(new_key, rowid)
        self._rows[rowid] = new_row
        if self._column_store is not None:
            self._column_store.note_update(rowid, new_row)
        return old_row

    def delete(self, rowid: int) -> dict[str, Any]:
        """Remove one row; returns it (for undo logging)."""
        row = self.stored(rowid)
        for index in self.indexes.values():
            index.delete(row[index.column], rowid)
        del self._rows[rowid]
        if self._column_store is not None:
            self._column_store.note_delete(rowid)
        return row

    def stored(self, rowid: int) -> dict[str, Any]:
        """The *stored* row dict, not a copy: read it, never write it
        (``update`` replaces the dict, so it stays as it was read).
        Raises :class:`SchemaError` when the row does not exist."""
        try:
            return self._rows[rowid]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no row with rowid {rowid}"
            ) from None

    def _check_uniqueness(
        self, row: Mapping[str, Any], exclude_rowid: int | None
    ) -> None:
        """Pre-check unique indexes so failed inserts leave no index
        half-updated (indexes are only touched after this passes)."""
        for index in self.indexes.values():
            if not index.unique:
                continue
            key = row[index.column]
            if key is None:
                continue
            for existing in index.lookup(key):
                if existing != exclude_rowid:
                    raise ConstraintViolation(
                        f"UNIQUE on {self.name}.{index.column}",
                        detail=f"duplicate key {key!r}",
                    )

    # -- reads -------------------------------------------------------------

    def get(self, rowid: int) -> dict[str, Any] | None:
        row = self._rows.get(rowid)
        return dict(row) if row is not None else None

    def scan(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """Full scan in heap order; yields copies so callers cannot
        corrupt storage by mutating results.

        Heap order is insertion order, not rowid order: the undo of a
        DELETE re-inserts its row at the end.  The row path and the
        columnar projection's order invariant both rely on it."""
        for rowid in list(self._rows):
            row = self._rows.get(rowid)
            if row is not None:
                yield rowid, dict(row)

    def scan_internal(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """Full scan yielding the *stored* row dicts, without per-row
        copies.

        For trusted read-only consumers only (the SELECT row source,
        ColumnStore builds, checkpoint serialization).  Safe because
        stored rows are never mutated in place — ``update`` replaces
        the dict — but callers must never write to a yielded dict.
        """
        return iter(list(self._rows.items()))

    def lookup_rowids(self, column: str, key: Any) -> list[int]:
        """Point lookup through an index when available, else a scan.

        SQL semantics on both paths: NULL never matches, so a ``None``
        key returns no rows even when an index stores NULL entries.
        """
        if key is None:
            return []
        index = self.index_on(column)
        if index is not None:
            return sorted(index.lookup(key))
        column = self.schema.column(column).name
        return [
            rowid
            for rowid, row in self._rows.items()
            if row[column] == key
        ]

    def column_store(self) -> "ColumnStore":
        """The table's columnar projection, created lazily on first use
        and kept consistent by the mutation hooks above."""
        if self._column_store is None:
            from repro.db.columnar import ColumnStore

            self._column_store = ColumnStore(self)
        return self._column_store

    @property
    def projection(self) -> "ColumnStore | None":
        """The columnar projection if one was ever asked for, else
        ``None`` (observability reads this; it never creates one)."""
        return self._column_store

    def snapshot(self) -> dict[int, dict[str, Any]]:
        """Deep-enough copy of all rows, used by checkpointing."""
        return {rowid: dict(row) for rowid, row in self._rows.items()}

    def restore(self, rows: Mapping[int, Mapping[str, Any]]) -> None:
        """Replace all contents from a checkpoint snapshot."""
        self._rows = {rowid: dict(row) for rowid, row in rows.items()}
        self._rowids = itertools.count(max(self._rows, default=0) + 1)
        if self._column_store is not None:
            self._column_store.note_mutation()
        for index in self.indexes.values():
            index.clear()
            for rowid, row in self._rows.items():
                index.insert(row[index.column], rowid)
