"""Predicate indexing for large rule sets (§2.2.c.iv.2.a).

The scalability claim the tutorial makes for database-hosted rules is
that evaluation cost should depend on the number of *matching* rules,
not the number of *registered* rules.  The classic technique (Oracle's
Expression Filter, pub/sub predicate indexes) is implemented here:

Every rule is **anchored** under one conjunct of its condition:

* ``col = const``  → an equality bucket keyed ``(col, const)``;
* ``col < / <= / > / >= / BETWEEN const`` → an interval in the
  per-column :class:`IntervalTree`;
* otherwise → the residual set, always evaluated.

Anchors are *necessary* conditions, so candidate generation is sound:
a rule whose anchor does not match cannot match overall (an absent
attribute is NULL, and NULL comparisons are UNKNOWN).  Probes follow
``compare_values``: bools are ints; a value that is neither NULL nor
numeric admits every interval on its column (it orders against numbers
by type name), and an unhashable one no equality bucket.  Candidates then
get full condition evaluation, so indexing is also complete — the
hypothesis test asserts indexed and naive evaluation agree exactly.

For churn (§2.2.c.iv.2.b) the interval trees absorb inserts/removals
into small side buffers and rebuild lazily once a buffer outgrows a
fraction of the tree — amortized O(log n) stabs with O(n) occasional
rebuilds, ablated in EXP-5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterator

from repro.db.expr import conjuncts
from repro.db.types import equality_key
from repro.errors import ExpressionError
from repro.rules.rule import Rule


@dataclass(frozen=True)
class Interval:
    """A one-column interval anchor. ``None`` bounds are unbounded."""

    low: float | None
    high: float | None
    low_inclusive: bool
    high_inclusive: bool
    rule_id: str

    def contains(self, value: float) -> bool:
        if self.low is not None:
            if value < self.low:
                return False
            if value == self.low and not self.low_inclusive:
                return False
        if self.high is not None:
            if value > self.high:
                return False
            if value == self.high and not self.high_inclusive:
                return False
        return True

    def midpoint_key(self) -> float:
        if self.low is not None and self.high is not None:
            return (float(self.low) + float(self.high)) / 2.0
        if self.low is not None:
            return float(self.low)
        if self.high is not None:
            return float(self.high)
        return 0.0


class IntervalTree:
    """Centered interval tree with lazy rebuilds under churn.

    ``stab(v)`` returns intervals containing ``v`` in
    O(log n + matches) against the built tree plus a linear pass over
    the small insert buffer.  Removals are tombstones filtered at stab
    time; both buffers trigger a rebuild when they exceed
    ``rebuild_fraction`` of the tree size.
    """

    def __init__(self, *, rebuild_fraction: float = 0.25, eager: bool = False) -> None:
        """``eager=True`` rebuilds on every mutation (the ablation
        baseline for EXP-5's churn measurements)."""
        self._root: _Node | None = None
        self._built_count = 0
        self._pending_add: list[Interval] = []
        self._tombstones: set[Interval] = set()
        self.rebuild_fraction = rebuild_fraction
        self.eager = eager
        self.rebuilds = 0

    def __len__(self) -> int:
        return self._built_count + len(self._pending_add) - len(self._tombstones)

    def insert(self, interval: Interval) -> None:
        if interval in self._tombstones:
            self._tombstones.discard(interval)
            return
        self._pending_add.append(interval)
        self._maybe_rebuild()

    def remove(self, interval: Interval) -> None:
        if interval in self._pending_add:
            self._pending_add.remove(interval)
            return
        self._tombstones.add(interval)
        self._maybe_rebuild()

    def _maybe_rebuild(self) -> None:
        buffered = len(self._pending_add) + len(self._tombstones)
        threshold = max(8, int(self._built_count * self.rebuild_fraction))
        if self.eager or buffered > threshold:
            self.rebuild()

    def intervals(self) -> list[Interval]:
        """Every live interval, built or still buffered."""
        tombstones = self._tombstones
        intervals = [i for i in self._all_built() if i not in tombstones]
        intervals.extend(i for i in self._pending_add if i not in tombstones)
        return intervals

    def rebuild(self) -> None:
        """Fold buffers into a freshly balanced tree."""
        intervals = self.intervals()
        self._pending_add = []
        self._tombstones = set()
        self._root = _build(intervals)
        self._built_count = len(intervals)
        self.rebuilds += 1

    def _all_built(self) -> Iterator[Interval]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            yield from node.by_low
            stack.append(node.left)
            stack.append(node.right)

    def stab(self, value: Any) -> list[Interval]:
        """All live intervals containing ``value`` (non-numeric → none)."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return []
        value = float(value)
        matches: list[Interval] = []
        node = self._root
        while node is not None:
            if value < node.center:
                for interval in node.by_low:
                    if interval.low is not None and interval.low > value:
                        break
                    if interval.contains(value) and interval not in self._tombstones:
                        matches.append(interval)
                node = node.left
            elif value > node.center:
                for interval in node.by_high:
                    if interval.high is not None and interval.high < value:
                        break
                    if interval.contains(value) and interval not in self._tombstones:
                        matches.append(interval)
                node = node.right
            else:
                for interval in node.by_low:
                    if interval.contains(value) and interval not in self._tombstones:
                        matches.append(interval)
                node = None
        for interval in self._pending_add:
            if interval.contains(value) and interval not in self._tombstones:
                matches.append(interval)
        return matches


@dataclass
class _Node:
    center: float
    by_low: list[Interval]  # intervals overlapping center, sorted by low
    by_high: list[Interval]  # same intervals, sorted by high desc
    left: "_Node | None"
    right: "_Node | None"


_NEG_INF = float("-inf")
_POS_INF = float("inf")


def _build(intervals: list[Interval]) -> _Node | None:
    if not intervals:
        return None
    centers = sorted(interval.midpoint_key() for interval in intervals)
    center = centers[len(centers) // 2]
    here: list[Interval] = []
    left: list[Interval] = []
    right: list[Interval] = []
    for interval in intervals:
        low = _NEG_INF if interval.low is None else float(interval.low)
        high = _POS_INF if interval.high is None else float(interval.high)
        if high < center:
            left.append(interval)
        elif low > center:
            right.append(interval)
        else:
            here.append(interval)
    by_low = sorted(
        here, key=lambda i: _NEG_INF if i.low is None else float(i.low)
    )
    by_high = sorted(
        here,
        key=lambda i: _POS_INF if i.high is None else float(i.high),
        reverse=True,
    )
    return _Node(
        center=center,
        by_low=by_low,
        by_high=by_high,
        left=_build(left),
        right=_build(right),
    )


class PredicateIndex:
    """Anchors rules for sub-linear candidate generation."""

    def __init__(self, *, eager_interval_rebuild: bool = False) -> None:
        self._equality: dict[tuple[str, Hashable], set[str]] = {}
        self._equality_columns: dict[str, int] = {}
        self._intervals: dict[str, IntervalTree] = {}
        self._interval_anchor: dict[str, tuple[str, Interval]] = {}
        self._equality_anchor: dict[str, tuple[str, Hashable]] = {}
        self._residual: set[str] = set()
        self._rules: dict[str, Rule] = {}
        self._eager = eager_interval_rebuild
        # Memoized referenced-column sets, captured once at add() time
        # (Expression.referenced_columns is itself memoized per node).
        self._rule_columns: dict[str, frozenset[str]] = {}
        # Constant conditions (no column references) are decided once at
        # registration: always-true rules are permanent candidates,
        # always-false/UNKNOWN rules are never candidates at all.
        self._always: set[str] = set()
        self._never: set[str] = set()

    def __len__(self) -> int:
        return len(self._rules)

    @property
    def residual_count(self) -> int:
        """Rules with no indexable anchor (always fully evaluated)."""
        return len(self._residual)

    def referenced_columns(self, rule_id: str) -> frozenset[str]:
        """The column set captured for a registered rule."""
        return self._rule_columns.get(rule_id, frozenset())

    def add(self, rule: Rule) -> None:
        self._rules[rule.rule_id] = rule
        columns = rule.condition.referenced_columns()
        self._rule_columns[rule.rule_id] = columns
        if not columns:
            try:
                always = rule.compiled_condition({})
            except ExpressionError:
                # Evaluation errors must surface at evaluation time,
                # exactly as naive mode would raise them.
                self._residual.add(rule.rule_id)
                return
            (self._always if always else self._never).add(rule.rule_id)
            return
        anchor = self._choose_anchor(rule)
        if anchor is None:
            self._residual.add(rule.rule_id)
            return
        kind, column, detail = anchor
        if kind == "eq":
            key = (column, equality_key(detail))
            self._equality.setdefault(key, set()).add(rule.rule_id)
            self._equality_anchor[rule.rule_id] = key
            self._equality_columns[column] = (
                self._equality_columns.get(column, 0) + 1
            )
        else:
            tree = self._intervals.get(column)
            if tree is None:
                tree = IntervalTree(eager=self._eager)
                self._intervals[column] = tree
            tree.insert(detail)
            self._interval_anchor[rule.rule_id] = (column, detail)

    def remove(self, rule_id: str) -> None:
        self._rules.pop(rule_id, None)
        self._rule_columns.pop(rule_id, None)
        if rule_id in self._always or rule_id in self._never:
            self._always.discard(rule_id)
            self._never.discard(rule_id)
            return
        if rule_id in self._residual:
            self._residual.discard(rule_id)
            return
        if rule_id in self._equality_anchor:
            key = self._equality_anchor.pop(rule_id)
            bucket = self._equality.get(key)
            if bucket is not None:
                bucket.discard(rule_id)
                if not bucket:
                    del self._equality[key]
            column = key[0]
            remaining = self._equality_columns.get(column, 0) - 1
            if remaining > 0:
                self._equality_columns[column] = remaining
            else:
                self._equality_columns.pop(column, None)
            return
        if rule_id in self._interval_anchor:
            column, interval = self._interval_anchor.pop(rule_id)
            tree = self._intervals.get(column)
            if tree is not None:
                tree.remove(interval)

    def _choose_anchor(
        self, rule: Rule
    ) -> tuple[str, str, Any] | None:
        """Pick the most selective necessary conjunct.

        Equality beats range (a point bucket is usually far more
        selective than an interval stab).  Non-numeric range constants
        cannot live in the float interval trees and fall through.
        """
        range_anchor: tuple[str, str, Any] | None = None
        for part in conjuncts(rule.condition):
            equality = part.as_equality()
            if equality is not None:
                column, value = equality
                return ("eq", column, value)
            bounds = part.as_range()
            if bounds is not None and range_anchor is None:
                column, low, high, low_inclusive, high_inclusive = bounds
                if _numeric_or_none(low) and _numeric_or_none(high):
                    interval = Interval(
                        low=None if low is None else float(low),
                        high=None if high is None else float(high),
                        low_inclusive=low_inclusive,
                        high_inclusive=high_inclusive,
                        rule_id=rule.rule_id,
                    )
                    range_anchor = ("range", column, interval)
        return range_anchor

    def candidates(self, context: Any) -> list[Rule]:
        """Rules whose anchor matches ``context`` plus the residual set.

        ``context`` is any mapping-like with ``.get``.
        """
        found: set[str] = set(self._residual)
        # Constant-true rules match regardless of context; constant-
        # false/UNKNOWN rules were excluded for good at add() time.
        found.update(self._always)
        # Equality: one probe per distinct anchored column, regardless
        # of how many (column, value) buckets exist.
        for column in self._equality_columns:
            value = context.get(column)
            if value is None:
                continue
            try:
                bucket = self._equality.get((column, equality_key(value)))
            except TypeError:
                # Unhashable (list, dict): no literal can equal it.
                continue
            if bucket:
                found.update(bucket)
        for column, tree in self._intervals.items():
            value = context.get(column)
            if value is None:
                continue
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                intervals = tree.stab(value)
            else:
                # compare_values orders other types against numbers by
                # type name, so any interval may hold: evaluation decides.
                intervals = tree.intervals()
            found.update(interval.rule_id for interval in intervals)
        return [self._rules[rule_id] for rule_id in found if rule_id in self._rules]


def _numeric_or_none(value: Any) -> bool:
    return value is None or (
        isinstance(value, (int, float)) and not isinstance(value, bool)
    )
