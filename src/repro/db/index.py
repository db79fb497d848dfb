"""Secondary indexes: hash (point lookup) and ordered (range scan).

Both index types map a single column's value to the set of rowids
holding that value.  Unique indexes additionally enforce at-most-one
rowid per non-NULL key and are how UNIQUE / PRIMARY KEY constraints are
implemented.  NULL keys are never indexed for uniqueness (SQL allows
many NULLs in a UNIQUE column) but are tracked so index-only plans stay
correct.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Iterable, Iterator

from repro.errors import ConstraintViolation, SchemaError


def _sort_key(value: Any) -> tuple[Any, ...]:
    """Total-order key: NULL first, then numerics, then by type name.

    Matches :func:`repro.db.types.compare_values` so ordered-index scans
    agree with ORDER BY.
    """
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, "", float(value))
    if isinstance(value, (int, float)):
        return (1, "", float(value))
    return (2, type(value).__name__, value)


#: Greater than every rowid: ``sort key + (_PAST_ROWIDS,)`` bisects past
#: all the entries with that sort key.
_PAST_ROWIDS = math.inf


class Index:
    """Common interface for both index kinds."""

    def __init__(self, name: str, table: str, column: str, unique: bool) -> None:
        self.name = name
        self.table = table
        self.column = column
        self.unique = unique

    def insert(self, key: Any, rowid: int) -> None:
        raise NotImplementedError

    def delete(self, key: Any, rowid: int) -> None:
        raise NotImplementedError

    def lookup(self, key: Any) -> Iterator[int]:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    @property
    def supports_range(self) -> bool:
        return False

    def _unique_violation(self, key: Any) -> ConstraintViolation:
        return ConstraintViolation(
            f"UNIQUE on {self.table}.{self.column}", detail=f"duplicate key {key!r}"
        )


class HashIndex(Index):
    """Dictionary-backed index: O(1) point lookups, no range scans."""

    def __init__(self, name: str, table: str, column: str, unique: bool = False) -> None:
        super().__init__(name, table, column, unique)
        self._buckets: dict[Any, set[int]] = {}

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def insert(self, key: Any, rowid: int) -> None:
        key = _hashable(key)
        bucket = self._buckets.setdefault(key, set())
        if self.unique and key is not None and bucket:
            raise self._unique_violation(key)
        bucket.add(rowid)

    def delete(self, key: Any, rowid: int) -> None:
        key = _hashable(key)
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.discard(rowid)
            if not bucket:
                del self._buckets[key]

    def lookup(self, key: Any) -> Iterator[int]:
        return iter(self._buckets.get(_hashable(key), ()))

    def contains_key(self, key: Any) -> bool:
        return _hashable(key) in self._buckets

    def clear(self) -> None:
        self._buckets.clear()


def _hashable(key: Any) -> Any:
    """Normalize a key for hashing: bools fold into ints, ints with
    equal float values fold together (so ``x = 1`` finds ``1.0``)."""
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, float) and key.is_integer():
        return int(key)
    return key


class OrderedIndex(Index):
    """Sorted-array index supporting point lookups and range scans.

    A B-tree would have better asymptotic insert cost; a sorted array
    with binary search has the same O(log n) search, the same ordered
    iteration, and far simpler invariants — sufficient at this scale and
    easy to verify with property tests.

    Each entry is one flat tuple, ``sort key + (rowid, key)``, so rowids
    are ordered within equal keys and every operation is a bisect or
    two, however many rows share a key.
    """

    def __init__(self, name: str, table: str, column: str, unique: bool = False) -> None:
        super().__init__(name, table, column, unique)
        self._entries: list[tuple[Any, ...]] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def supports_range(self) -> bool:
        return True

    def _first(self, sort_key: tuple[Any, ...]) -> int:
        """Position of the first entry with ``sort_key``, or where it
        would go."""
        return bisect.bisect_left(self._entries, sort_key)

    def _past(self, sort_key: tuple[Any, ...]) -> int:
        """Position just past the last entry with ``sort_key``."""
        return bisect.bisect_left(self._entries, sort_key + (_PAST_ROWIDS,))

    def insert(self, key: Any, rowid: int) -> None:
        sort_key = _sort_key(key)
        if self.unique and key is not None:
            if self._past(sort_key) > self._first(sort_key):
                raise self._unique_violation(key)
        entry = sort_key + (rowid, key)
        self._entries.insert(bisect.bisect_left(self._entries, entry), entry)

    def delete(self, key: Any, rowid: int) -> None:
        sort_key = _sort_key(key)
        entries = self._entries
        position = bisect.bisect_left(entries, sort_key + (rowid,))
        if (
            position < len(entries)
            and entries[position][-2] == rowid
            and entries[position][:-2] == sort_key
        ):
            del entries[position]

    def lookup(self, key: Any) -> Iterator[int]:
        sort_key = _sort_key(key)
        entries = self._entries
        for position in range(self._first(sort_key), self._past(sort_key)):
            yield entries[position][-2]

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[Any, int]]:
        """Yield ``(key, rowid)`` for keys within the bounds, in order.

        ``None`` bounds mean unbounded; NULL keys are never returned by
        a range scan (SQL comparisons with NULL are UNKNOWN).
        """
        if low is not None:
            low_key = _sort_key(low)
            start = self._first(low_key) if low_inclusive else self._past(low_key)
        else:
            # Skip NULL entries, which sort first.
            start = self._past(_sort_key(None))
        if high is not None:
            high_key = _sort_key(high)
            stop = self._past(high_key) if high_inclusive else self._first(high_key)
        else:
            stop = len(self._entries)
        entries = self._entries
        for position in range(start, stop):
            entry = entries[position]
            if entry[-1] is None:
                continue
            yield entry[-1], entry[-2]

    def min_key(self) -> Any:
        """Smallest non-NULL key, or None when the index is empty."""
        for key, _rowid in self.range_scan():
            return key
        return None

    def max_key(self) -> Any:
        """Largest key, or None when the index holds only NULLs/nothing."""
        if not self._entries:
            return None
        return self._entries[-1][-1]

    def clear(self) -> None:
        self._entries.clear()


def build_index(
    kind: str, name: str, table: str, column: str, unique: bool = False
) -> Index:
    """Factory used by CREATE INDEX: kind is ``"hash"`` or ``"ordered"``."""
    if kind == "hash":
        return HashIndex(name, table, column, unique)
    if kind in ("ordered", "btree"):
        return OrderedIndex(name, table, column, unique)
    raise SchemaError(f"unknown index kind {kind!r}")
