"""Access-path planning for single-table row selection.

Given a table and a WHERE expression, the planner picks, in order of
preference:

1. **Index point lookup** — an equality conjunct ``col = value`` whose
   column has any index.
2. **Index range scan** — a range conjunct (``<``, ``<=``, ``>``,
   ``>=``, ``BETWEEN``) whose column has an ordered index; adjacent
   range conjuncts on the same column are merged into one interval.
3. **Full scan** — everything else.

A *value* is a literal (``-5`` included) or a ``?``.  The choice
depends only on the WHERE's shape and the table's indexes, so the
executor plans a cached template once per schema version.  What a ``?`` holds is read when the
plan is resolved for one execution (:meth:`AccessPlan.resolve`): the
lookup key, and the range bounds, where a NULL bound drops its conjunct
exactly as a NULL literal does.  A WHERE without ``?`` is resolved once,
at planning.

Whatever path is chosen, the full WHERE expression is re-applied as a
residual filter, so planning is purely an optimization and can never
change results — the property the planner's hypothesis test asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.db.expr import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    Literal,
    Parameter,
    UnaryOp,
    compile_expression,
    compile_predicate,
    conjuncts,
    contains_parameters,
)
from repro.db.index import OrderedIndex
from repro.db.storage import HeapTable
from repro.db.types import compare_values


@dataclass
class AccessPath:
    """A chosen way to produce candidate (rowid, row) pairs."""

    kind: str  # "scan" | "index_eq" | "index_range"
    table: HeapTable
    where: Expression | None
    index_name: str | None = None
    column: str | None = None
    key: Any = None
    low: Any = None
    high: Any = None
    low_inclusive: bool = True
    high_inclusive: bool = True

    def explain(self) -> str:
        """Human-readable plan description (asserted on in tests)."""
        if self.kind == "scan":
            return f"SCAN {self.table.name}"
        if self.kind == "index_eq":
            return (
                f"INDEX LOOKUP {self.table.name}.{self.column} = {self.key!r} "
                f"USING {self.index_name}"
            )
        low_bracket = "[" if self.low_inclusive else "("
        high_bracket = "]" if self.high_inclusive else ")"
        return (
            f"INDEX RANGE {self.table.name}.{self.column} "
            f"{low_bracket}{self.low!r}, {self.high!r}{high_bracket} "
            f"USING {self.index_name}"
        )

    def resolve(self, where: Expression | None) -> "AccessPath":
        """This path filtering by ``where``: the template's own WHERE, or
        the copy the executor made of it with its subqueries' results."""
        return self if where is self.where else replace(self, where=where)

    def rows(self) -> list[tuple[int, dict[str, Any]]]:
        """The candidate rows that pass the residual WHERE filter.

        The residual predicate is memoized on the expression node, so a
        cached statement template compiles it once.  Rows are the stored
        dicts, not copies: every consumer (SELECT, UPDATE / DELETE
        targeting) only reads them, and stored rows are never mutated in
        place.
        """
        table = self.table
        if self.kind == "scan":
            candidates = list(table.scan_internal())
        elif self.kind == "index_eq":
            index = table.indexes[self.index_name]
            stored = table.stored
            candidates = [
                (rowid, stored(rowid)) for rowid in sorted(index.lookup(self.key))
            ]
        else:
            index = table.indexes[self.index_name]
            assert isinstance(index, OrderedIndex)
            stored = table.stored
            # The index orders numbers by their float value, so ints past
            # 2^53 share keys with their neighbours: an exclusive bound
            # there would skip rows the residual WHERE accepts.  Scan it
            # inclusively and let the residual decide.
            candidates = [
                (rowid, stored(rowid))
                for _key, rowid in index.range_scan(
                    self.low,
                    self.high,
                    low_inclusive=self.low_inclusive or _float_ambiguous(self.low),
                    high_inclusive=self.high_inclusive or _float_ambiguous(self.high),
                )
            ]
        if self.where is None:
            return candidates
        predicate = compile_predicate(self.where)
        return [(rowid, row) for rowid, row in candidates if predicate(row)]


#: Largest magnitude up to which every int has an exact float64.
_FLOAT_EXACT_INT = 2**53


def _float_ambiguous(bound: Any) -> bool:
    """Whether index keys other than ``bound`` may sort equal to it."""
    return (
        isinstance(bound, (int, float))
        and not isinstance(bound, bool)
        and not abs(bound) < _FLOAT_EXACT_INT
    )

_ValueFn = Callable[[Any], Any]
#: ``col <op> value`` seen from the column's side.
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
#: What a conjunct bounds: (low?, high?, low_inclusive, high_inclusive).
_BOUNDS = {
    "<": (False, True, False, False),
    "<=": (False, True, False, True),
    ">": (True, False, False, False),
    ">=": (True, False, True, False),
    "=": (True, True, True, True),
    "between": (True, True, True, True),
}


def _value_fn(node: Expression) -> _ValueFn | None:
    """The closure reading a value; None when ``node`` is not one.

    A value is a literal, a ``?``, or a negated number literal — how the
    parser reads ``-5`` — so that ``x = -5`` plans as ``x = ?`` does when
    the ``?`` holds -5.
    """
    if isinstance(node, (Literal, Parameter)) or (
        isinstance(node, UnaryOp)
        and node.op == "-"
        and isinstance(node.operand, Literal)
        and isinstance(node.operand.value, (int, float))
        and not isinstance(node.operand.value, bool)
    ):
        return compile_expression(node)
    return None


def _conjunct(part: Expression) -> tuple[str, str, list[_ValueFn]] | None:
    """``(column, op, value readers)`` when ``part`` compares a column
    with a value (the operator read from the column's side) or puts it
    BETWEEN two values (op ``"between"``, readers low and high)."""
    if isinstance(part, Between):
        readers = [_value_fn(part.low), _value_fn(part.high)]
        if part.negated or not isinstance(part.operand, ColumnRef) or None in readers:
            return None
        return part.operand.name, "between", readers
    if not isinstance(part, BinaryOp) or part.op not in _FLIP:
        return None
    for column, value, op in (
        (part.left, part.right, part.op),
        (part.right, part.left, _FLIP[part.op]),
    ):
        if isinstance(column, ColumnRef):
            reader = _value_fn(value)
            if reader is not None:
                return column.name, op, [reader]
    return None


class AccessPlan:
    """The access choice for a WHERE that holds ``?`` values: the index
    and column are fixed, the key or the bounds are read per execution.

    ``ranges`` lists, in conjunct order, the range conjuncts on columns
    with an ordered index as ``(column, index name, value readers,
    bounds)``.  Resolving drops the conjuncts with a NULL value, then
    takes the first column left and merges its bounds, as planning over
    literals does.
    """

    __slots__ = ("table", "where", "index_name", "column", "key", "ranges")

    def __init__(self, table: HeapTable, where: Expression) -> None:
        self.table = table
        self.where = where
        self.index_name: str | None = None
        self.column: str | None = None
        self.key: _ValueFn | None = None
        self.ranges: list[tuple[str, str, list[_ValueFn], tuple]] = []

    def resolve(self, where: Expression | None) -> AccessPath:
        """The path for the values installed now, filtering by ``where``."""
        if self.key is not None:
            return AccessPath(
                kind="index_eq",
                table=self.table,
                where=where,
                index_name=self.index_name,
                column=self.column,
                key=self.key({}),
            )
        chosen: str | None = None
        bound_list = []
        for column, index_name, readers, (has_low, has_high, cli, chi) in self.ranges:
            if chosen is not None and column != chosen:
                continue
            values = [read({}) for read in readers]
            if any(value is None for value in values):
                continue
            chosen, chosen_index = column, index_name
            low = values[0] if has_low else None
            high = values[-1] if has_high else None
            bound_list.append((low, high, cli, chi))
        if chosen is None:
            return AccessPath(kind="scan", table=self.table, where=where)
        return _range_path(self.table, where, chosen_index, chosen, bound_list)


def _range_path(
    table: HeapTable,
    where: Expression | None,
    index_name: str,
    column: str,
    bound_list: list[tuple[Any, Any, bool, bool]],
) -> AccessPath:
    """One column's range conjuncts merged into the tightest interval,
    in the order SQL compares values (text and numbers do not raise)."""
    low: Any = None
    high: Any = None
    low_inclusive = True
    high_inclusive = True
    for candidate_low, candidate_high, cli, chi in bound_list:
        if candidate_low is not None:
            order = 1 if low is None else compare_values(candidate_low, low)
            if order > 0:
                low, low_inclusive = candidate_low, cli
            elif order == 0:
                low_inclusive = low_inclusive and cli
        if candidate_high is not None:
            order = -1 if high is None else compare_values(candidate_high, high)
            if order < 0:
                high, high_inclusive = candidate_high, chi
            elif order == 0:
                high_inclusive = high_inclusive and chi
    return AccessPath(
        kind="index_range",
        table=table,
        where=where,
        index_name=index_name,
        column=column,
        low=low,
        high=high,
        low_inclusive=low_inclusive,
        high_inclusive=high_inclusive,
    )


def plan_access(
    table: HeapTable, where: Expression | None
) -> AccessPath | AccessPlan:
    """Choose the access path for ``table`` under ``where``.

    Returns an :class:`AccessPath` when ``where`` holds no ``?``, else an
    :class:`AccessPlan`; either one's ``resolve(where)`` gives the path
    for one execution.
    """
    if where is None:
        return AccessPath(kind="scan", table=table, where=None)

    parts = [part for part in map(_conjunct, conjuncts(where)) if part is not None]
    plan = AccessPlan(table, where)

    # 1. Equality with any index on the column.
    for column, op, readers in parts:
        index = table.index_on(column) if op == "=" else None
        if index is not None:
            plan.index_name, plan.column, plan.key = index.name, column, readers[0]
            break
    else:
        # 2. Range over an ordered index; merge conjuncts on one column.
        for column, op, readers in parts:
            index = table.index_on(column, require_range=True)
            if index is not None:
                plan.ranges.append((column, index.name, readers, _BOUNDS[op]))

    return plan if contains_parameters(where) else plan.resolve(where)
