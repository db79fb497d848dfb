"""Columnar secondary projection of a heap table.

A :class:`ColumnStore` shadows one :class:`repro.db.storage.HeapTable`
with per-column typed numpy arrays plus null masks — the batch-at-a-time
representation the vectorized executor fast path (and the IVM batch
folds) reduce over.  The heap stays the single source of truth; the
store is a cache kept up to date in place, by a consistency protocol
driven by the table's mutation hooks:

* **The log.**  Every insert, update and delete lands in one pending
  log, coalesced per rowid, in O(1): rows that own a position in the
  arrays map to their latest stored row (or to ``None`` once deleted);
  rows the arrays do not hold yet wait in an insertion-ordered tail.
  The log holds references to stored rows, never copies.
* **The flush.**  The next :meth:`ColumnStore.batch` applies the log in
  O(rows changed) Python work: updates overwrite values and null bits at
  the row's position (a TEXT update that brings a new word merges it
  into the sorted dictionary and remaps the codes; an INT that overflows
  int64 drops the column), deletes compact their positions out, the
  tail is encoded once and appended.
* **The order invariant.**  After every flush the arrays are, element
  for element, what a fresh build over :meth:`HeapTable.scan_internal`
  would produce, *in heap dict order*: an update keeps its position, a
  delete closes the gap, an insert — including the undo re-insert of a
  rolled-back DELETE, which puts an old rowid behind newer ones — goes
  to the end.  First-occurrence group order, representative rowids and
  float reduction order therefore cannot depend on whether a row was
  patched or rebuilt.  (Two licensed differences: a TEXT dictionary may
  keep a word no row uses until the next merge drops it, and a column
  dropped for overflow stays dropped until the next rebuild.)
  ``tests/db/test_columnar_equivalence.py`` checks the invariant against
  a fresh store after every step of a random DML walk.
* **The bound.**  The log may hold at most ``_LOG_BOUND_FRACTION`` of
  the rows the projection had at its last read (and at least
  ``_LOG_BOUND_FLOOR``); one write more and the store drops to *dirty*,
  releasing every row reference — also when nobody ever reads the
  projection again.
* **What still rebuilds.**  The first read, the first read after
  :meth:`HeapTable.restore`, and the first read after the log outgrew
  its bound re-encode the table from the heap.  Nothing else does.
* Reads happen under the database's shared table lock and writes under
  its exclusive one, so a batch handed out by :meth:`batch` is
  consistent with the heap for the duration of the statement — and is
  valid for that long only, because the next flush writes into the same
  arrays.

Column encodings:

* INT and BOOL columns are ``int64`` arrays (``compare_values`` folds
  bools to ints, so this loses nothing); REAL and TIMESTAMP are
  ``float64``; NULLs store a zero fill plus a ``True`` bit in the
  column's null mask.
* TEXT columns are dictionary-encoded: a *sorted* array of distinct
  strings plus an ``int64`` code per row.  Sorting the dictionary makes
  code order string order, so MIN / MAX reduce codes; predicates over
  the column evaluate once per word (see ``repro.db.expr_vector``).
* JSON columns (and INT columns whose values overflow int64) are not
  vectorizable; expressions touching them fall back to the row path.

GC note: after a flush the store retains O(columns) numpy arrays and
nothing per row; between flushes the log adds two dicts whose values
are rows the heap already owns — the batch-256 cliff EXPERIMENTS.md
records under EXP-3 was gen-2 GC walks over per-row Python objects, and
this layer must not reintroduce one (regression-gated by ``tests/perf/test_columnar_gc.py`` and
``test_columnar_patch.py``).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.db import types as _types

if TYPE_CHECKING:
    from repro.db.schema import TableSchema
    from repro.db.storage import HeapTable

#: Largest share of the projection's rows (as of its last read) the
#: pending log may cover before the store gives up patching and rebuilds
#: on the next read.  Measured on a 50 000-row, six-column
#: table (the EXP-0 ``orders`` table; rebuild + aggregate 109 ms, clean
#: aggregate 2.6 ms): flushing updates to 1/16, 1/4, 1/2, 3/4 and all of
#: the rows costs 9, 29, 50, 83 and 121 ms, so patching and rebuilding
#: cross at about 0.9 of the table.  Half keeps a flush at most half the
#: price of a rebuild and the log at most half the table's row references.
_LOG_BOUND_FRACTION = 0.5
#: Below this many pending rows the log never gives up: re-encoding a
#: table that small is cheap, but doing it on every write burst is churn.
_LOG_BOUND_FLOOR = 64


def vector_kinds(schema: "TableSchema") -> dict[str, str]:
    """Map each vectorizable column to its kernel kind.

    Kinds: ``int`` / ``real`` / ``bool`` (numeric arrays) and ``text``
    (dictionary codes).  JSON columns are omitted — an expression that
    references an omitted column does not vector-compile, which is the
    fallback contract.  Memoized on the schema object.
    """
    cached = schema.__dict__.get("_vector_kinds_memo")
    if cached is not None:
        return cached
    kinds: dict[str, str] = {}
    for column in schema.columns:
        col_type = column.col_type
        if col_type is _types.INT:
            kinds[column.name] = "int"
        elif col_type is _types.REAL or col_type is _types.TIMESTAMP:
            kinds[column.name] = "real"
        elif col_type is _types.BOOL:
            kinds[column.name] = "bool"
        elif col_type is _types.TEXT:
            kinds[column.name] = "text"
    schema._vector_kinds_memo = kinds
    return kinds


class ColumnSeries:
    """One column's arrays: values (or text codes), null mask, and —
    for text — the sorted dictionary the codes index into."""

    __slots__ = ("kind", "values", "nulls", "dictionary")

    def __init__(self, kind: str, values: Any, nulls: Any, dictionary: Any = None):
        self.kind = kind  # "num" | "text"
        self.values = values
        self.nulls = nulls
        self.dictionary = dictionary


class ColumnBatch:
    """A consistent, read-only view over a ColumnStore's arrays.

    This is the object vector kernels evaluate against: ``n`` rows,
    ``series(name)`` per column (``None`` when the column could not be
    encoded — the runtime fallback signal), and the aligned ``rowids``
    array the executor uses to fetch representative rows."""

    __slots__ = ("n", "rowids", "_series")

    def __init__(self, n: int, rowids: Any, series: dict[str, ColumnSeries]):
        self.n = n
        self.rowids = rowids
        self._series = series

    def series(self, name: str) -> ColumnSeries | None:
        return self._series.get(name)


class ColumnStore:
    """Lazily built, incrementally maintained columnar projection of one
    heap table.

    A :class:`ColumnBatch` handed out by :meth:`batch` is valid for the
    statement that asked for it only: the next flush overwrites patched
    positions in the same arrays.
    """

    def __init__(self, table: "HeapTable") -> None:
        self._table = table
        self._lock = threading.Lock()
        self._kinds = vector_kinds(table.schema)
        self._dirty = True
        # The pending-mutation log, coalesced per rowid.  Values are
        # references to stored rows (never mutated in place, so holding
        # them is safe); both dicts are emptied by every flush.
        # ``_patches``: rows that own a position in the arrays -> their
        # latest stored row, or None once deleted.
        # ``_tail``: rows the arrays do not hold yet, in heap dict order
        # (a dict, so deleting and re-inserting a rowid moves it to the
        # end exactly as it does in ``HeapTable._rows``).
        self._patches: dict[int, Mapping[str, Any] | None] = {}
        self._tail: dict[int, Mapping[str, Any]] = {}
        self._log_bound = 0  # set from the row count by every read
        self._rowids: Any = None
        self._columns: dict[str, ColumnSeries] = {}
        # Diagnostics (asserted on by the consistency and perf-guard
        # tests, published as ``columnar.*`` gauges by the database).
        self.rebuilds = 0
        self.append_batches = 0
        self.patched_rows = 0

    # -- mutation hooks (called by HeapTable with storage already updated)

    def note_insert(self, rowid: int, row: Mapping[str, Any]) -> None:
        if not self._dirty:
            self._tail[rowid] = row
            self._bound_log()

    def note_update(self, rowid: int, row: Mapping[str, Any]) -> None:
        if not self._dirty:
            if rowid in self._tail:
                self._tail[rowid] = row  # keeps its place in the tail
            else:
                self._patches[rowid] = row
                self._bound_log()

    def note_delete(self, rowid: int) -> None:
        if not self._dirty and self._tail.pop(rowid, None) is None:
            self._patches[rowid] = None
            self._bound_log()

    def note_mutation(self) -> None:
        """Wholesale invalidate (restore, or a log past its bound): drop
        the log and its row references; the next read rebuilds."""
        self._dirty = True
        self._patches.clear()
        self._tail.clear()

    def pending(self) -> int:
        """Rows the log currently holds references for."""
        return len(self._patches) + len(self._tail)

    def stats(self) -> dict[str, int]:
        """How the projection has been kept up to date so far."""
        return {
            "rebuilds": self.rebuilds,
            "append_batches": self.append_batches,
            "patched_rows": self.patched_rows,
        }

    def _bound_log(self) -> None:
        if self.pending() > self._log_bound:
            self.note_mutation()

    # -- reads -------------------------------------------------------------

    def batch(self) -> ColumnBatch:
        """The current consistent view: built on first use, otherwise
        brought up to date by applying the pending log."""
        with self._lock:
            if self._dirty:
                self._rebuild()
            else:
                try:
                    if self._patches:
                        self._apply_patches()
                    if self._tail:
                        self._append_tail()
                except BaseException:
                    # Interrupted mid-flush (Ctrl-C in the SQL shell): the
                    # log is half applied, so only the heap can be trusted.
                    self.note_mutation()
                    raise
            n = int(self._rowids.shape[0])
            self._log_bound = max(_LOG_BOUND_FLOOR, int(n * _LOG_BOUND_FRACTION))
            return ColumnBatch(n, self._rowids, dict(self._columns))

    # -- encoding ----------------------------------------------------------

    def _rebuild(self) -> None:
        rows = list(self._table.scan_internal())
        self._rowids = np.fromiter(
            (rowid for rowid, _row in rows), dtype=np.int64, count=len(rows)
        )
        self._columns = {}
        for name, kind in self._kinds.items():
            series = self._encode_column(name, kind, [row for _rowid, row in rows])
            if series is not None:
                self._columns[name] = series
        self._dirty = False  # the log is empty: nothing is logged while dirty
        self.rebuilds += 1

    def _apply_patches(self) -> None:
        """Overwrite updated rows at their positions, then compact
        deleted positions out; surviving rows keep their relative order,
        as they do in the heap dict."""
        patches, self._patches = self._patches, {}
        count = len(patches)
        positions = self._positions(
            np.fromiter(patches, dtype=np.int64, count=count)
        )
        updated = np.fromiter(
            (row is not None for row in patches.values()), dtype=np.bool_, count=count
        )
        rows = [row for row in patches.values() if row is not None]
        if rows:
            at = positions[updated]
            for name in list(self._columns):
                patch = self._encode_column(name, self._kinds[name], rows)
                if patch is None:
                    del self._columns[name]  # overflow mid-update: drop column
                    continue
                base = self._columns[name]
                codes = patch.values
                if base.kind == "text":
                    base, codes = _unify_text(base, patch)
                    self._columns[name] = base
                base.values[at] = codes
                base.nulls[at] = patch.nulls
        if len(rows) < count:
            keep = np.ones(self._rowids.shape[0], dtype=np.bool_)
            keep[positions[~updated]] = False
            self._rowids = self._rowids[keep]
            for name, series in self._columns.items():
                self._columns[name] = ColumnSeries(
                    series.kind, series.values[keep], series.nulls[keep],
                    series.dictionary,
                )
        self.patched_rows += count

    def _positions(self, wanted: Any) -> Any:
        """Array positions of rowids known to be present."""
        rowids = self._rowids
        if bool((rowids[1:] > rowids[:-1]).all()):
            return np.searchsorted(rowids, wanted)
        # Undo re-inserts (ROLLBACK of a DELETE) put old rowids behind
        # newer ones, in the heap dict and therefore here.
        order = np.argsort(rowids)
        return order[np.searchsorted(rowids, wanted, sorter=order)]

    def _append_tail(self) -> None:
        tail, self._tail = self._tail, {}
        tail_rowids = np.fromiter(tail, dtype=np.int64, count=len(tail))
        self._rowids = np.concatenate([self._rowids, tail_rowids])
        tail_rows = list(tail.values())
        for name in list(self._columns):
            base = self._columns[name]
            series = self._encode_column(name, self._kinds[name], tail_rows)
            if series is None:
                del self._columns[name]  # overflow mid-append: drop column
                continue
            codes = series.values
            if base.kind == "text":
                base, codes = _unify_text(base, series)
            self._columns[name] = ColumnSeries(
                base.kind,
                np.concatenate([base.values, codes]),
                np.concatenate([base.nulls, series.nulls]),
                base.dictionary,
            )
        self.append_batches += 1

    def _encode_column(
        self, name: str, kind: str, rows: list[Mapping[str, Any]]
    ) -> ColumnSeries | None:
        raw = [row[name] for row in rows]
        nulls = np.fromiter(
            (value is None for value in raw), dtype=np.bool_, count=len(raw)
        )
        if kind == "text":
            distinct = sorted({value for value in raw if value is not None})
            dictionary = np.array(distinct, dtype=object)
            encode = {value: code for code, value in enumerate(distinct)}
            codes = np.fromiter(
                (0 if value is None else encode[value] for value in raw),
                dtype=np.int64,
                count=len(raw),
            )
            return ColumnSeries("text", codes, nulls, dictionary)
        if kind == "real":
            values = np.fromiter(
                (0.0 if value is None else value for value in raw),
                dtype=np.float64,
                count=len(raw),
            )
            return ColumnSeries("num", values, nulls)
        # int / bool -> int64 (compare_values folds bool to int anyway)
        try:
            values = np.fromiter(
                (0 if value is None else int(value) for value in raw),
                dtype=np.int64,
                count=len(raw),
            )
        except OverflowError:
            return None  # unbounded Python ints: this column is row-path only
        return ColumnSeries("num", values, nulls)


def _lookup_words(dictionary: Any, words: Any) -> tuple[Any, Any]:
    """Where each of ``words`` sits (or would be inserted) in the sorted
    ``dictionary``, and whether it is already there."""
    slots = np.searchsorted(dictionary, words)
    known = np.zeros(words.shape[0], dtype=np.bool_)
    inside = slots < dictionary.shape[0]
    known[inside] = dictionary[slots[inside]] == words[inside]
    return slots, known


def _unify_text(base: ColumnSeries, other: ColumnSeries) -> tuple[ColumnSeries, Any]:
    """Express ``other``'s codes in ``base``'s dictionary.

    Returns ``(base, codes)``.  When ``other`` brings no new word —
    the common case — ``base`` comes back untouched.  Otherwise the new
    words are merged in so the dictionary stays sorted and base codes
    are remapped; words no row uses any more (updates and deletes strand
    them) are dropped first, which bounds the dictionary by what a
    rebuild would hold plus one log's worth of stragglers.
    """
    words = other.dictionary
    if words.shape[0] == 0:
        return base, other.values  # all NULL: nothing to translate
    slots, known = _lookup_words(base.dictionary, words)
    if known.all():
        return base, slots[other.values]
    base = _without_unused_words(base)
    old = base.dictionary
    slots, known = _lookup_words(old, words)
    fresh = ~known
    at = slots[fresh]
    merged = np.insert(old, at, words[fresh])
    # np.insert puts each new word before index ``at``: an old word moves
    # right by the number of new words landing at or before its index.
    old_codes = np.arange(old.shape[0])
    remap = old_codes + np.searchsorted(at, old_codes, side="right")
    word_codes = np.empty(words.shape[0], dtype=np.int64)
    word_codes[known] = remap[slots[known]]
    word_codes[fresh] = at + np.arange(at.shape[0])
    # With an empty dictionary every row is NULL and keeps its 0 fill.
    codes = remap[base.values] if old.shape[0] else base.values
    return ColumnSeries("text", codes, base.nulls, merged), word_codes[other.values]


def _without_unused_words(series: ColumnSeries) -> ColumnSeries:
    used = np.zeros(series.dictionary.shape[0], dtype=np.bool_)
    used[series.values[~series.nulls]] = True
    if used.all():
        return series
    codes = (np.cumsum(used) - 1)[series.values]
    codes[series.nulls] = 0
    return ColumnSeries("text", codes, series.nulls, series.dictionary[used])
