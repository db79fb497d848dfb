"""Vectorized expression compilation (columnar fast path).

``compile_vector_predicate`` / ``compile_vector_extractor`` lower the
same AST the row path compiles into batch kernels over a
:class:`repro.db.columnar.ColumnBatch`.  Three-valued logic is carried
explicitly: every boolean result is a pair ``(truth, nulls)`` of
aligned masks with the invariant ``truth[nulls] == False`` (UNKNOWN is
never true), so Kleene AND/OR compose by plain mask algebra.

The contract with the row path is *derive or refuse*: a kernel takes
its semantics from the row path, or it raises :class:`VectorFallback`
and the executor reruns the statement on the row path.

* **Text has one definition, the scalar closure.**  A boolean-valued,
  function-free subtree that reads exactly one TEXT column is lowered to
  ``compile_expression(subtree)`` evaluated once per dictionary word and
  once for NULL, gathered by code.  A word whose evaluation raises
  refuses the batch (the row path then raises, or does not, on the rows
  it actually visits).  A bare TEXT column keeps its dictionary codes
  for GROUP BY keys and MIN / MAX / COUNT; any other use — compared
  with another column, in arithmetic, ``||``, CASE — refuses.
* **Numbers keep numpy kernels where numpy computes what Python
  computes**: comparisons, ``+ - * / %``, negation, Kleene logic, IN and
  BETWEEN.  They refuse where it does not: an int64 result that could
  leave the int64 range (Python ints do not wrap), a NaN produced by
  REAL arithmetic (``compare_values`` calls NaN equal to every number,
  numpy equal to none), an int beyond float64's exact range compared
  with a float or divided (numpy rounds it first), a division whose
  divisor is not a nonzero constant, and arithmetic constants beyond
  the int64-safe range.  A number compared with a non-number gets
  ``compare_values``' answer, which is the same for every number.
* Column-free subtrees fold through ``compile_expression``; one that
  raises refuses, so the row path raises.

Refusals happen at compile time, or at runtime for one batch (a column
the store could not encode, an overflow or NaN the data produced, a
word that raises); the executor treats both alike.
"""

from __future__ import annotations

import operator as _operator
from typing import Any, Callable, Mapping

from repro.db.expr import (
    _CMP_FLIP,
    _CMP_OK,
    _COMPARISONS,
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
    compile_expression,
)
from repro.db.types import compare_values

_VECTOR_CMP: dict[str, Callable[[Any, Any], Any]] = {
    "=": _operator.eq,
    "!=": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}

#: On int64 arrays ``%`` is numpy's remainder, which takes the sign of
#: the divisor as Python's does.
_VECTOR_ARITH: dict[str, Callable[[Any, Any], Any]] = {
    "+": _operator.add,
    "-": _operator.sub,
    "*": _operator.mul,
    "/": _operator.truediv,
    "%": _operator.mod,
}

#: Integer constants beyond this magnitude are refused in *arithmetic*
#: at compile time (numpy raises OverflowError on them); comparisons are
#: exact for arbitrary Python ints and need no guard.
_INT64_ARITH_BOUND = 2**62
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
#: Largest magnitude up to which every int has an exact float64.
_FLOAT_EXACT_INT = 2**53


def _truthy(value: Any) -> bool:
    """SQL condition result to Python bool: UNKNOWN/NULL counts as false."""
    return bool(value) and value is not None


class VectorFallback(Exception):
    """This expression (or this batch) cannot be vectorized; the caller
    must rerun on the row path, which has identical semantics."""


_PURE_NODES = (ColumnRef, Literal, BinaryOp, UnaryOp, IsNull, InList, Between, Like, Case)


def _pure(node: Expression) -> bool:
    """Whether a subtree's closure depends on nothing but the columns it
    reads: parameters, function calls (possibly impure, re-registrable)
    and unknown node classes are excluded — mirroring the row compiler,
    which never folds FunctionCall."""
    if not isinstance(node, _PURE_NODES):
        return False
    return all(_pure(child) for child in node.children())


def _boolean_valued(node: Expression) -> bool:
    """Whether the row path's closure for ``node`` only ever returns
    True, False or None."""
    if isinstance(node, BinaryOp):
        return node.op in _COMPARISONS or node.op in ("AND", "OR")
    if isinstance(node, UnaryOp):
        return node.op == "NOT"
    return isinstance(node, (IsNull, InList, Between, Like))


def _vector_const(node: Expression) -> Any:
    try:
        return compile_expression(node)({})
    except Exception:
        # The row path raises at evaluation; fall back so it does.
        raise VectorFallback("constant subtree raises at evaluation") from None


def _series(batch: Any, name: str) -> Any:
    series = batch.series(name)
    if series is None:
        raise VectorFallback(f"column {name!r} not encoded")
    return series


def _kind(side: Any) -> str:
    """``"i"`` or ``"f"``: whether a numeric operand — a constant or an
    array — holds ints or floats."""
    if isinstance(side, float):
        return "f"
    if isinstance(side, int):
        return "i"
    return side.dtype.kind


def _int_range(side: Any) -> tuple[int, int]:
    """Least and greatest value of an int operand (constant or array)."""
    if isinstance(side, int):
        return side, side
    if side.shape[0] == 0:
        return 0, 0
    return int(side.min()), int(side.max())


def _refuse_int64_overflow(op: str, left: Any, right: Any) -> None:
    """Refuse unless ``left <op> right`` stays inside int64 for every
    pair of operand values.  ``+ - *`` over a box of ints reach their
    extremes at its corners, computed here in Python ints."""
    apply = _VECTOR_ARITH[op]
    left_low, left_high = _int_range(left)
    right_low, right_high = _int_range(right)
    corners = [
        apply(a, b) for a in (left_low, left_high) for b in (right_low, right_high)
    ]
    if min(corners) < INT64_MIN or max(corners) > INT64_MAX:
        raise VectorFallback(f"int64 {op!r} could overflow")


def _refuse_rounded_ints(*sides: Any) -> None:
    """numpy rounds an int to float64 before comparing it with a float
    or dividing it; Python compares ints and floats exactly and divides
    two ints with one rounding.  Refuse ints float64 cannot hold."""
    for side in sides:
        if _kind(side) == "i":
            low, high = _int_range(side)
            if low < -_FLOAT_EXACT_INT or high > _FLOAT_EXACT_INT:
                raise VectorFallback("int beyond float64's exact range")


def _compare(cmp: Callable[[Any, Any], Any], left: Any, right: Any) -> Any:
    """``cmp`` over two numeric operands, as ``compare_values`` orders
    them."""
    if _kind(left) != _kind(right):
        _refuse_rounded_ints(left, right)
    return cmp(left, right)


def _refuse_nan(values: Any, nulls: Any, np: Any) -> None:
    nan = np.isnan(values)
    if nan.any() and (nan & ~nulls).any():
        raise VectorFallback("REAL arithmetic produced NaN")


def _as_bool_closure(flavor: str, fn: Any, np: Any) -> Callable[[Any], tuple[Any, Any]]:
    """Adapt a flavor to boolean ``(truth, nulls)`` with SQL truthiness
    (``_truthy``): nonzero numbers are true."""
    if flavor == "bool":
        return fn
    if flavor == "const":
        truth = np.bool_(_truthy(fn))
        null = np.bool_(fn is None)

        def const_fn(batch: Any, _t: Any = truth, _n: Any = null) -> tuple[Any, Any]:
            return _t, _n

        return const_fn
    if flavor == "num":

        def num_fn(batch: Any, _fn: Any = fn) -> tuple[Any, Any]:
            values, nulls = _fn(batch)
            return (values != 0) & ~nulls, nulls

        return num_fn
    raise VectorFallback(f"flavor {flavor!r} in a boolean context")


def _as_num_closure(flavor: str, fn: Any, np: Any) -> Any:
    """Adapt bool results to int64 value arrays (matching the bool→int
    fold ``compare_values`` and Python arithmetic both apply)."""
    if flavor == "num":
        return fn
    if flavor == "bool":

        def conv(batch: Any, _fn: Any = fn, _np: Any = np) -> tuple[Any, Any]:
            truth, nulls = _fn(batch)
            return truth.astype(_np.int64), nulls

        return conv
    raise VectorFallback(f"flavor {flavor!r} not numeric")


def _vc_text_predicate(node: Expression, name: str, np: Any) -> Any:
    """``node`` reads only the TEXT column ``name``: its row-path closure
    runs once per dictionary word and once for NULL, and each row takes
    the result of its code."""
    fn = compile_expression(node)

    def per_word_fn(
        batch: Any, _fn: Any = fn, _name: str = name, _np: Any = np
    ) -> tuple[Any, Any]:
        series = _series(batch, _name)
        words = series.dictionary.tolist()
        words.append(None)
        try:
            results = [_fn({_name: word}) for word in words]
        except Exception:
            # A row holding this word makes the row path raise; the word
            # may also be a straggler no row holds.  Either way the row
            # path decides.
            raise VectorFallback("text predicate raises on a word") from None
        truth = _np.array([_truthy(value) for value in results], dtype=bool)
        unknown = _np.array([value is None for value in results], dtype=bool)
        slots = _np.where(series.nulls, len(words) - 1, series.values)
        return truth[slots], unknown[slots]

    return per_word_fn


def _vc_cmp_const(flavor: str, fn: Any, op: str, const: Any, np: Any) -> Any:
    """``<array side> <op> <constant>`` as a boolean closure."""
    num_fn = _as_num_closure(flavor, fn, np)
    if const is None:

        def null_fn(batch: Any, _fn: Any = num_fn, _np: Any = np) -> tuple[Any, Any]:
            n = _fn(batch)[1].shape[0]
            return _np.zeros(n, dtype=bool), _np.ones(n, dtype=bool)

        return null_fn
    if isinstance(const, bool):
        const = int(const)
    if isinstance(const, (int, float)) and const == const:
        cmp_fn = _VECTOR_CMP[op]

        def num_cmp_fn(
            batch: Any, _fn: Any = num_fn, _c: Any = const, _cmp: Any = cmp_fn
        ) -> tuple[Any, Any]:
            values, nulls = _fn(batch)
            return _compare(_cmp, values, _c) & ~nulls, nulls

        return num_cmp_fn
    # A non-number, or NaN: compare_values gives every number the same
    # answer unless ints and floats order differently against it.
    verdicts = {compare_values(probe, const) in _CMP_OK[op] for probe in (0, 0.0)}
    if len(verdicts) != 1:
        raise VectorFallback("comparison constant straddles type ordering")
    truth_const = verdicts.pop()

    def const_verdict_fn(
        batch: Any, _fn: Any = num_fn, _t: bool = truth_const, _np: Any = np
    ) -> tuple[Any, Any]:
        nulls = _fn(batch)[1]
        if _t:
            return ~nulls, nulls
        return _np.zeros(nulls.shape[0], dtype=bool), nulls

    return const_verdict_fn


def _vc_binary(node: BinaryOp, kinds: Mapping[str, str], np: Any) -> tuple[str, Any]:
    op = node.op

    if op in ("AND", "OR"):
        lflavor, lraw = _vc_node(node.left, kinds, np)
        rflavor, rraw = _vc_node(node.right, kinds, np)
        lfn = _as_bool_closure(lflavor, lraw, np)
        rfn = _as_bool_closure(rflavor, rraw, np)
        if op == "AND":

            def and_fn(batch: Any, _l: Any = lfn, _r: Any = rfn) -> tuple[Any, Any]:
                lt, ln = _l(batch)
                rt, rn = _r(batch)
                lf = ~lt & ~ln
                rf = ~rt & ~rn
                return lt & rt, (ln | rn) & ~lf & ~rf

            return "bool", and_fn

        def or_fn(batch: Any, _l: Any = lfn, _r: Any = rfn) -> tuple[Any, Any]:
            lt, ln = _l(batch)
            rt, rn = _r(batch)
            return lt | rt, (ln | rn) & ~lt & ~rt

        return "bool", or_fn

    if op in _COMPARISONS:
        lflavor, lraw = _vc_node(node.left, kinds, np)
        rflavor, rraw = _vc_node(node.right, kinds, np)
        if lflavor == "const":
            return "bool", _vc_cmp_const(rflavor, rraw, _CMP_FLIP[op], lraw, np)
        if rflavor == "const":
            return "bool", _vc_cmp_const(lflavor, lraw, op, rraw, np)
        lfn = _as_num_closure(lflavor, lraw, np)
        rfn = _as_num_closure(rflavor, rraw, np)
        cmp_fn = _VECTOR_CMP[op]

        def pair_cmp_fn(
            batch: Any, _l: Any = lfn, _r: Any = rfn, _cmp: Any = cmp_fn
        ) -> tuple[Any, Any]:
            lv, ln = _l(batch)
            rv, rn = _r(batch)
            nulls = ln | rn
            return _compare(_cmp, lv, rv) & ~nulls, nulls

        return "bool", pair_cmp_fn

    if op in _VECTOR_ARITH:
        lflavor, lraw = _vc_node(node.left, kinds, np)
        rflavor, rraw = _vc_node(node.right, kinds, np)

        def arith_side(flavor: str, raw: Any) -> Any:
            if flavor == "const":
                value = int(raw) if isinstance(raw, bool) else raw
                if not isinstance(value, (int, float)):
                    raise VectorFallback("non-numeric arithmetic constant")
                if isinstance(value, int) and abs(value) > _INT64_ARITH_BOUND:
                    raise VectorFallback("arithmetic constant exceeds int64 range")
                return value
            return _as_num_closure(flavor, raw, np)

        left_side = arith_side(lflavor, lraw)
        right_side = arith_side(rflavor, rraw)
        if op in ("/", "%"):
            # Only a nonzero *constant* divisor is safe: with a column
            # divisor, vector evaluation would visit rows the row path
            # never evaluates (short circuits, index candidates) and so
            # could raise where the row path does not — or vice versa.
            if rflavor != "const" or right_side == 0:
                raise VectorFallback("division requires nonzero constant divisor")

        def arith_fn(
            batch: Any,
            _l: Any = left_side,
            _r: Any = right_side,
            _op: str = op,
            _apply: Any = _VECTOR_ARITH[op],
            _np: Any = np,
        ) -> tuple[Any, Any]:
            lv, ln = _l(batch) if callable(_l) else (_l, None)
            rv, rn = _r(batch) if callable(_r) else (_r, None)
            nulls = rn if ln is None else ln if rn is None else ln | rn
            if _kind(lv) == _kind(rv) == "i":
                if _op == "/":
                    _refuse_rounded_ints(lv, rv)
                elif _op != "%":
                    _refuse_int64_overflow(_op, lv, rv)
            values = _apply(lv, rv)
            if values.dtype.kind == "f":
                _refuse_nan(values, nulls, _np)
            return values, nulls

        return "num", arith_fn

    # ``||`` outside a one-TEXT-column predicate would need runtime
    # dictionary construction; unknown ops raise on the row path.
    raise VectorFallback(f"operator {op!r} not vectorized")


def _vc_node(node: Expression, kinds: Mapping[str, str], np: Any) -> tuple[str, Any]:
    """Lower one node; returns ``(flavor, payload)`` where payload is the
    constant value for flavor ``"const"`` and a batch closure otherwise.

    Closure results by flavor — ``"bool"``: ``(truth, nulls)``;
    ``"num"``: ``(values, nulls)``; ``"text"``: ``(codes, nulls,
    dictionary)``.  All arrays are read-only by convention.
    """
    columns = node.referenced_columns()
    if not columns:
        if not _pure(node):
            raise VectorFallback(
                f"unsupported constant node {type(node).__name__}"
            )
        return "const", _vector_const(node)

    if len(columns) == 1 and _boolean_valued(node):
        (name,) = columns
        if kinds.get(name) == "text" and _pure(node):
            return "bool", _vc_text_predicate(node, name, np)

    if isinstance(node, ColumnRef):
        kind = kinds.get(node.name)
        if kind is None:
            # JSON column or unknown name; the row path either handles
            # it or raises the proper unknown-column error.
            raise VectorFallback(f"column {node.name!r} not vectorizable")
        if kind == "text":

            def text_col_fn(batch: Any, _name: str = node.name) -> tuple[Any, Any, Any]:
                series = _series(batch, _name)
                return series.values, series.nulls, series.dictionary

            return "text", text_col_fn

        if kind == "bool":
            # Bool columns surface as the "bool" flavor so aggregates
            # can reproduce the row path's True/False results; numeric
            # contexts convert via _as_num_closure (bool -> int64).

            def bool_col_fn(batch: Any, _name: str = node.name) -> tuple[Any, Any]:
                series = _series(batch, _name)
                return series.values != 0, series.nulls

            return "bool", bool_col_fn

        def num_col_fn(batch: Any, _name: str = node.name) -> tuple[Any, Any]:
            series = _series(batch, _name)
            return series.values, series.nulls

        return "num", num_col_fn

    if isinstance(node, BinaryOp):
        return _vc_binary(node, kinds, np)

    if isinstance(node, UnaryOp):
        flavor, raw = _vc_node(node.operand, kinds, np)
        if node.op == "NOT":
            bool_fn = _as_bool_closure(flavor, raw, np)

            def not_fn(batch: Any, _fn: Any = bool_fn) -> tuple[Any, Any]:
                truth, nulls = _fn(batch)
                return ~truth & ~nulls, nulls

            return "bool", not_fn
        if node.op == "-":
            num_fn = _as_num_closure(flavor, raw, np)

            def neg_fn(batch: Any, _fn: Any = num_fn) -> tuple[Any, Any]:
                values, nulls = _fn(batch)
                if _kind(values) == "i":
                    _refuse_int64_overflow("-", 0, values)
                return -values, nulls

            return "num", neg_fn
        raise VectorFallback(f"unary operator {node.op!r} not vectorized")

    if isinstance(node, IsNull):
        flavor, raw = _vc_node(node.operand, kinds, np)
        if flavor == "const":
            raise VectorFallback("IS NULL over constant reached vector path")

        def isnull_fn(
            batch: Any, _fn: Any = raw, _neg: bool = node.negated, _np: Any = np
        ) -> tuple[Any, Any]:
            nulls = _fn(batch)[1]
            truth = ~nulls if _neg else nulls
            return truth, _np.zeros(nulls.shape[0], dtype=bool)

        return "bool", isnull_fn

    if isinstance(node, InList):
        flavor, raw = _vc_node(node.operand, kinds, np)
        if flavor == "const":
            raise VectorFallback("IN over constant operand reached vector path")
        num_fn = _as_num_closure(flavor, raw, np)
        consts = []
        for item in node.items:
            if item.referenced_columns() or not _pure(item):
                raise VectorFallback("IN list with non-constant items")
            consts.append(_vector_const(item))
        saw_null = any(value is None for value in consts)
        # compare_values never calls a number equal to a non-number.
        candidates = tuple(
            int(value) if isinstance(value, bool) else value
            for value in consts
            if isinstance(value, (bool, int, float))
        )
        if any(value != value for value in candidates):
            raise VectorFallback("NaN in IN list")

        def in_num_fn(
            batch: Any,
            _fn: Any = num_fn,
            _cands: tuple = candidates,
            _saw_null: bool = saw_null,
            _neg: bool = node.negated,
            _np: Any = np,
        ) -> tuple[Any, Any]:
            values, nulls = _fn(batch)
            valid = ~nulls
            matched = _np.zeros(values.shape[0], dtype=bool)
            for candidate in _cands:
                matched |= _compare(_operator.eq, values, candidate)
            matched &= valid
            if _neg:
                if _saw_null:
                    truth = _np.zeros(values.shape[0], dtype=bool)
                else:
                    truth = valid & ~matched
            else:
                truth = matched
            return truth, nulls | (valid & ~matched & _saw_null)

        return "bool", in_num_fn

    if isinstance(node, Between):
        flavor, raw = _vc_node(node.operand, kinds, np)
        if flavor == "const":
            raise VectorFallback("BETWEEN over constant operand reached vector path")
        for bound in (node.low, node.high):
            if bound.referenced_columns() or not _pure(bound):
                raise VectorFallback("BETWEEN with non-constant bounds")
        low_value = _vector_const(node.low)
        high_value = _vector_const(node.high)
        if low_value is None or high_value is None:
            return "bool", _vc_cmp_const(flavor, raw, "=", None, np)
        ge_fn = _vc_cmp_const(flavor, raw, ">=", low_value, np)
        le_fn = _vc_cmp_const(flavor, raw, "<=", high_value, np)

        def between_fn(
            batch: Any, _ge: Any = ge_fn, _le: Any = le_fn, _neg: bool = node.negated
        ) -> tuple[Any, Any]:
            ge_truth, nulls = _ge(batch)
            le_truth, _ = _le(batch)
            inside = ge_truth & le_truth
            if _neg:
                return ~inside & ~nulls, nulls
            return inside, nulls

        return "bool", between_fn

    # LIKE over anything but one TEXT column, Case, FunctionCall,
    # Parameter, AggregateCall, user nodes.
    raise VectorFallback(f"node {type(node).__name__} not vectorized")


def _vector_signature(kinds: Mapping[str, str]) -> tuple:
    return tuple(sorted(kinds.items()))


def compile_vector_predicate(
    expression: Expression, kinds: Mapping[str, str]
) -> Callable[[Any], Any]:
    """Compile a WHERE tree into ``fn(batch) -> bool ndarray`` (truth
    mask; UNKNOWN maps to False, like :func:`compile_predicate`).

    Memoized per node and per column-kind signature, so cached statement
    templates compile their kernels once.  Raises :class:`VectorFallback`
    when any sub-expression is not vectorizable.
    """
    memo = expression.__dict__.setdefault("_vector_memo", {})
    key = ("pred", _vector_signature(kinds))
    cached = memo.get(key)
    if cached is not None:
        if isinstance(cached, VectorFallback):
            raise cached
        return cached
    import numpy as np

    try:
        flavor, raw = _vc_node(expression, kinds, np)
        if flavor == "const":
            truth_const = _truthy(raw)

            def predicate(batch: Any, _t: bool = truth_const, _np: Any = np) -> Any:
                if _t:
                    return _np.ones(batch.n, dtype=bool)
                return _np.zeros(batch.n, dtype=bool)

        else:
            bool_fn = _as_bool_closure(flavor, raw, np)

            def predicate(batch: Any, _fn: Any = bool_fn) -> Any:
                return _fn(batch)[0]

    except VectorFallback as exc:
        memo[key] = exc
        raise
    memo[key] = predicate
    return predicate


def compile_vector_extractor(
    expression: Expression, kinds: Mapping[str, str]
) -> tuple[str, Any]:
    """Compile a value expression (aggregate argument, GROUP BY key)
    into ``(flavor, payload)``: the constant value for ``"const"``, else
    a closure returning the flavor's arrays (see :func:`_vc_node`).
    Memoized like :func:`compile_vector_predicate`."""
    memo = expression.__dict__.setdefault("_vector_memo", {})
    key = ("extract", _vector_signature(kinds))
    cached = memo.get(key)
    if cached is not None:
        if isinstance(cached, VectorFallback):
            raise cached
        return cached
    import numpy as np

    try:
        result = _vc_node(expression, kinds, np)
    except VectorFallback as exc:
        memo[key] = exc
        raise
    memo[key] = result
    return result
