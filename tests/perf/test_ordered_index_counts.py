"""Count guard for :class:`OrderedIndex` writes under a shared key.

An ordered index on a low-cardinality column holds many rows per key.
An insert or a delete must find its place with one bisect, so the key
comparisons it makes grow with log(rows), not with the number of rows
that share its key.  Keys are counted through their ``__eq__`` /
``__lt__``; every row gets its own (equal) key object, so no comparison
is skipped by identity.
"""

from __future__ import annotations

from repro.db.index import OrderedIndex


class CountedKey:
    comparisons = 0

    def __init__(self, value: int) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        CountedKey.comparisons += 1
        return isinstance(other, CountedKey) and self.value == other.value

    def __lt__(self, other: "CountedKey") -> bool:
        CountedKey.comparisons += 1
        return self.value < other.value

    __hash__ = None  # type: ignore[assignment]


def _comparisons_per_write(shared: int) -> tuple[float, float]:
    """Key comparisons per insert and per delete of a row whose key
    ``shared`` rows already hold (plus rows under other keys)."""
    index = OrderedIndex("ix", "t", "customer")
    rowid = 0
    for value in range(3):
        for _ in range(shared):
            rowid += 1
            index.insert(CountedKey(value), rowid)
    probes = range(rowid + 1, rowid + 51)
    CountedKey.comparisons = 0
    for probe in probes:
        index.insert(CountedKey(1), probe)
    inserts = CountedKey.comparisons / len(probes)
    CountedKey.comparisons = 0
    for probe in probes:
        index.delete(CountedKey(1), probe)
    deletes = CountedKey.comparisons / len(probes)
    assert len(index) == 3 * shared
    return inserts, deletes


def test_a_write_is_one_bisect_however_many_rows_share_its_key():
    small = _comparisons_per_write(40)
    large = _comparisons_per_write(4_000)
    for few, many in zip(small, large):
        # log2(3 * 4 000) is ~14 bisect steps, each at most two key
        # comparisons; a walk over the equal keys would be ~4 000.
        assert many <= 2 * 14 + 4
        assert many <= few + 2 * 7  # log2(100) more steps, no more


def test_equal_keys_keep_rowid_order_and_lookup_finds_them_all():
    index = OrderedIndex("ix", "t", "customer")
    for rowid in (5, 1, 9, 3):
        index.insert("acme", rowid)
    index.insert("zeta", 2)
    assert list(index.lookup("acme")) == [1, 3, 5, 9]
    index.delete("acme", 5)
    index.delete("acme", 42)  # absent: a no-op
    assert list(index.lookup("acme")) == [1, 3, 9]
    assert [rowid for _key, rowid in index.range_scan("acme", "zeta")] == [1, 3, 9, 2]
    above = index.range_scan("acme", low_inclusive=False)
    assert [rowid for _key, rowid in above] == [2]
