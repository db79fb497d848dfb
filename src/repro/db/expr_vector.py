"""Vectorized expression compilation (columnar fast path).

``compile_vector_predicate`` / ``compile_vector_extractor`` lower the
same AST the row path compiles into batch kernels over a
:class:`repro.db.columnar.ColumnBatch`.  Three-valued logic is carried
explicitly: every boolean result is a pair ``(truth, nulls)`` of
aligned masks with the invariant ``truth[nulls] == False`` (UNKNOWN is
never true), so Kleene AND/OR compose by plain mask algebra.

The contract with the row path is *fallback, never divergence*: any
node shape whose vectorized semantics would not match the row path
exactly — impure functions, CASE, string concatenation, per-row
division-by-zero hazards, text-vs-text column comparisons, constants
outside the int64-safe range in arithmetic — raises
:class:`VectorFallback` at compile time, and the executor reruns the
statement on the row path.  Kernels may also raise it at *runtime*
(a column the store could not encode); the executor treats both alike.

``compare_values`` gives the engine one quirk the kernels exploit:
cross-type comparisons degrade to comparing *type names*, so a numeric
column compared against a string constant has a constant result for
every non-null row ("int"/"float" < "str") — compiled to a constant
mask rather than falling back.
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
    _like_to_regex,
    compile_expression,
)
from repro.errors import ExpressionError

_VECTOR_CMP: dict[str, Callable[[Any, Any], Any]] = {
    "=": _operator.eq,
    "!=": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}

_VECTOR_ARITH: dict[str, Callable[[Any, Any], Any]] = {
    "+": _operator.add,
    "-": _operator.sub,
    "*": _operator.mul,
}

#: Integer constants beyond this magnitude can overflow int64 kernels
#: in *arithmetic* (numpy raises OverflowError); comparisons are exact
#: for arbitrary Python ints and need no guard.
_INT64_ARITH_BOUND = 2**62


def _truthy(value: Any) -> bool:
    """SQL condition result to Python bool: UNKNOWN/NULL counts as false."""
    return bool(value) and value is not None


class VectorFallback(Exception):
    """This expression (or this batch) cannot be vectorized; the caller
    must rerun on the row path, which has identical semantics."""


def _vector_np() -> Any:
    from repro.db.columnar import np

    if np is None:
        raise VectorFallback("numpy unavailable")
    return np


_PURE_CONST_NODES = (Literal, BinaryOp, UnaryOp, IsNull, InList, Between, Like, Case)


def _pure_constant(node: Expression) -> bool:
    """Whether a column-free subtree may be folded at compile time.

    Parameters, function calls (possibly impure, re-registrable), and
    unknown node classes are excluded — mirroring the row compiler,
    which never folds FunctionCall.
    """
    if not isinstance(node, _PURE_CONST_NODES):
        return False
    return all(_pure_constant(child) for child in node.children())


def _vector_const(node: Expression) -> Any:
    try:
        return compile_expression(node)({})
    except (ExpressionError, TypeError, ValueError, ZeroDivisionError):
        # The row path raises at evaluation; fall back so it does.
        raise VectorFallback("constant subtree raises at evaluation") from None


def _name_sign(a: str, b: str) -> int:
    return (a > b) - (a < b)


def _cross_type_sign(side_class: str, const: Any) -> int | None:
    """The constant ``compare_values`` sign for every non-null value of
    a column class against a constant of an unrelated type, or None when
    the sign is not uniform (int and float names straddle the constant's
    type name)."""
    tname = type(const).__name__
    if side_class == "num":
        s_int = _name_sign("int", tname)
        s_float = _name_sign("float", tname)
        if s_int == s_float and s_int != 0:
            return s_int
        return None
    sign = _name_sign("str", tname)
    return sign if sign != 0 else None


def _as_bool_closure(flavor: str, fn: Any, np: Any) -> Callable[[Any], tuple[Any, Any]]:
    """Adapt any flavor to boolean ``(truth, nulls)`` with SQL truthiness
    (``_truthy``): nonzero numbers and non-empty strings are true."""
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

    def text_fn(batch: Any, _fn: Any = fn, _np: Any = np) -> tuple[Any, Any]:
        codes, nulls, dictionary = _fn(batch)
        if dictionary.shape[0] == 0:
            return _np.zeros(codes.shape[0], dtype=bool), nulls
        lookup = _np.fromiter(
            (len(s) > 0 for s in dictionary), dtype=bool, count=dictionary.shape[0]
        )
        return lookup[codes] & ~nulls, nulls

    return text_fn


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


def _vc_cmp_text_const(fn: Any, op: str, const: str, np: Any) -> Any:
    """``text_column <op> string_constant`` on dictionary codes.  The
    dictionary is sorted, so ordered comparisons are a searchsorted
    bound on codes and equality is one position probe."""

    def text_cmp_fn(
        batch: Any, _fn: Any = fn, _op: str = op, _c: str = const, _np: Any = np
    ) -> tuple[Any, Any]:
        codes, nulls, dictionary = _fn(batch)
        valid = ~nulls
        m = dictionary.shape[0]
        if m == 0:
            return _np.zeros(codes.shape[0], dtype=bool), nulls
        if _op in ("=", "!="):
            pos = int(_np.searchsorted(dictionary, _c))
            found = pos < m and dictionary[pos] == _c
            if _op == "=":
                if found:
                    truth = (codes == pos) & valid
                else:
                    truth = _np.zeros(codes.shape[0], dtype=bool)
            else:
                truth = ((codes != pos) & valid) if found else valid
        elif _op == "<":
            truth = (codes < int(_np.searchsorted(dictionary, _c, side="left"))) & valid
        elif _op == "<=":
            truth = (codes < int(_np.searchsorted(dictionary, _c, side="right"))) & valid
        elif _op == ">":
            truth = (codes >= int(_np.searchsorted(dictionary, _c, side="right"))) & valid
        else:  # >=
            truth = (codes >= int(_np.searchsorted(dictionary, _c, side="left"))) & valid
        return truth, nulls

    return text_cmp_fn


def _vc_cmp_const(flavor: str, fn: Any, op: str, const: Any, np: Any) -> Any:
    """``<array side> <op> <constant>`` as a boolean closure."""
    if const is None:

        def null_fn(batch: Any, _fn: Any = fn, _np: Any = np) -> tuple[Any, Any]:
            nulls = _fn(batch)[1]
            n = nulls.shape[0]
            return _np.zeros(n, dtype=bool), _np.ones(n, dtype=bool)

        return null_fn
    if flavor == "bool":
        return _vc_cmp_const("num", _as_num_closure("bool", fn, np), op, const, np)
    if isinstance(const, bool):
        const = int(const)
    if flavor == "num" and isinstance(const, (int, float)):
        cmp_fn = _VECTOR_CMP[op]

        def num_cmp_fn(
            batch: Any, _fn: Any = fn, _c: Any = const, _cmp: Any = cmp_fn
        ) -> tuple[Any, Any]:
            values, nulls = _fn(batch)
            return _cmp(values, _c) & ~nulls, nulls

        return num_cmp_fn
    if flavor == "text" and isinstance(const, str):
        return _vc_cmp_text_const(fn, op, const, np)
    sign = _cross_type_sign("num" if flavor == "num" else "text", const)
    if sign is None:
        raise VectorFallback("comparison constant straddles type ordering")
    truth_const = sign in _CMP_OK[op]

    def const_sign_fn(
        batch: Any, _fn: Any = fn, _t: bool = truth_const, _np: Any = np
    ) -> tuple[Any, Any]:
        nulls = _fn(batch)[1]
        if _t:
            return ~nulls, nulls
        return _np.zeros(nulls.shape[0], dtype=bool), nulls

    return const_sign_fn


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
        # Array vs array.
        if lflavor == "text" and rflavor == "text":
            raise VectorFallback("text-vs-text column comparison")
        if "text" in (lflavor, rflavor):
            # Cross-class: compare_values degrades to type names, so the
            # sign is constant (str sorts after int/float) for valid rows.
            sign = 1 if lflavor == "text" else -1
            truth_const = sign in _CMP_OK[op]
            lnfn = lraw
            rnfn = rraw

            def cross_fn(
                batch: Any,
                _l: Any = lnfn,
                _r: Any = rnfn,
                _t: bool = truth_const,
                _np: Any = np,
            ) -> tuple[Any, Any]:
                nulls = _l(batch)[1] | _r(batch)[1]
                if _t:
                    return ~nulls, nulls
                return _np.zeros(nulls.shape[0], dtype=bool), nulls

            return "bool", cross_fn
        lfn = _as_num_closure(lflavor, lraw, np)
        rfn = _as_num_closure(rflavor, rraw, np)
        cmp_fn = _VECTOR_CMP[op]

        def pair_cmp_fn(
            batch: Any, _l: Any = lfn, _r: Any = rfn, _cmp: Any = cmp_fn
        ) -> tuple[Any, Any]:
            lv, ln = _l(batch)
            rv, rn = _r(batch)
            nulls = ln | rn
            return _cmp(lv, rv) & ~nulls, nulls

        return "bool", pair_cmp_fn

    if op in ("+", "-", "*", "/", "%"):
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
            if lflavor == "const":
                raise VectorFallback("constant dividend over column divisor")
            apply_fn = _operator.truediv if op == "/" else np.mod

            def div_fn(
                batch: Any, _l: Any = left_side, _c: Any = right_side, _apply: Any = apply_fn
            ) -> tuple[Any, Any]:
                values, nulls = _l(batch)
                return _apply(values, _c), nulls

            return "num", div_fn

        arith_fn = _VECTOR_ARITH[op]
        if lflavor == "const":

            def const_left_fn(
                batch: Any, _c: Any = left_side, _r: Any = right_side, _apply: Any = arith_fn
            ) -> tuple[Any, Any]:
                values, nulls = _r(batch)
                return _apply(_c, values), nulls

            return "num", const_left_fn
        if rflavor == "const":

            def const_right_fn(
                batch: Any, _l: Any = left_side, _c: Any = right_side, _apply: Any = arith_fn
            ) -> tuple[Any, Any]:
                values, nulls = _l(batch)
                return _apply(values, _c), nulls

            return "num", const_right_fn

        def pair_arith_fn(
            batch: Any, _l: Any = left_side, _r: Any = right_side, _apply: Any = arith_fn
        ) -> tuple[Any, Any]:
            lv, ln = _l(batch)
            rv, rn = _r(batch)
            return _apply(lv, rv), ln | rn

        return "num", pair_arith_fn

    # ``||`` would need runtime dictionary construction; unknown ops
    # raise on the row path.
    raise VectorFallback(f"operator {op!r} not vectorized")


def _vc_node(node: Expression, kinds: Mapping[str, str], np: Any) -> tuple[str, Any]:
    """Lower one node; returns ``(flavor, payload)`` where payload is the
    constant value for flavor ``"const"`` and a batch closure otherwise.

    Closure results by flavor — ``"bool"``: ``(truth, nulls)``;
    ``"num"``: ``(values, nulls)``; ``"text"``: ``(codes, nulls,
    dictionary)``.  All arrays are read-only by convention.
    """
    if not node.referenced_columns():
        if not _pure_constant(node):
            raise VectorFallback(
                f"unsupported constant node {type(node).__name__}"
            )
        return "const", _vector_const(node)

    if isinstance(node, ColumnRef):
        kind = kinds.get(node.name)
        if kind is None:
            # JSON column or unknown name; the row path either handles
            # it or raises the proper unknown-column error.
            raise VectorFallback(f"column {node.name!r} not vectorizable")
        if kind == "text":

            def text_col_fn(batch: Any, _name: str = node.name) -> tuple[Any, Any, Any]:
                series = batch.series(_name)
                if series is None:
                    raise VectorFallback(f"column {_name!r} not encoded")
                return series.values, series.nulls, series.dictionary

            return "text", text_col_fn

        if kind == "bool":
            # Bool columns surface as the "bool" flavor so aggregates
            # can reproduce the row path's True/False results; numeric
            # contexts convert via _as_num_closure (bool -> int64).

            def bool_col_fn(batch: Any, _name: str = node.name) -> tuple[Any, Any]:
                series = batch.series(_name)
                if series is None:
                    raise VectorFallback(f"column {_name!r} not encoded")
                return series.values != 0, series.nulls

            return "bool", bool_col_fn

        def num_col_fn(batch: Any, _name: str = node.name) -> tuple[Any, Any]:
            series = batch.series(_name)
            if series is None:
                raise VectorFallback(f"column {_name!r} not encoded")
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
        if flavor == "bool":
            flavor, raw = "num", _as_num_closure("bool", raw, np)
        consts = []
        for item in node.items:
            if item.referenced_columns() or not _pure_constant(item):
                raise VectorFallback("IN list with non-constant items")
            consts.append(_vector_const(item))
        saw_null = any(value is None for value in consts)
        if flavor == "num":
            candidates = tuple(
                int(value) if isinstance(value, bool) else value
                for value in consts
                if isinstance(value, (bool, int, float))
            )

            def in_num_fn(
                batch: Any,
                _fn: Any = raw,
                _cands: tuple = candidates,
                _saw_null: bool = saw_null,
                _neg: bool = node.negated,
                _np: Any = np,
            ) -> tuple[Any, Any]:
                values, nulls = _fn(batch)
                valid = ~nulls
                matched = _np.zeros(values.shape[0], dtype=bool)
                for candidate in _cands:
                    matched |= values == candidate
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

        text_candidates = tuple(value for value in consts if isinstance(value, str))

        def in_text_fn(
            batch: Any,
            _fn: Any = raw,
            _cands: tuple = text_candidates,
            _saw_null: bool = saw_null,
            _neg: bool = node.negated,
            _np: Any = np,
        ) -> tuple[Any, Any]:
            codes, nulls, dictionary = _fn(batch)
            valid = ~nulls
            matched = _np.zeros(codes.shape[0], dtype=bool)
            m = dictionary.shape[0]
            if m:
                for candidate in _cands:
                    pos = int(_np.searchsorted(dictionary, candidate))
                    if pos < m and dictionary[pos] == candidate:
                        matched |= codes == pos
            matched &= valid
            if _neg:
                if _saw_null:
                    truth = _np.zeros(codes.shape[0], dtype=bool)
                else:
                    truth = valid & ~matched
            else:
                truth = matched
            return truth, nulls | (valid & ~matched & _saw_null)

        return "bool", in_text_fn

    if isinstance(node, Between):
        flavor, raw = _vc_node(node.operand, kinds, np)
        if flavor == "const":
            raise VectorFallback("BETWEEN over constant operand reached vector path")
        for bound in (node.low, node.high):
            if bound.referenced_columns() or not _pure_constant(bound):
                raise VectorFallback("BETWEEN with non-constant bounds")
        low_value = _vector_const(node.low)
        high_value = _vector_const(node.high)
        if low_value is None or high_value is None:

            def null_between_fn(
                batch: Any, _fn: Any = raw, _np: Any = np
            ) -> tuple[Any, Any]:
                n = _fn(batch)[1].shape[0]
                return _np.zeros(n, dtype=bool), _np.ones(n, dtype=bool)

            return "bool", null_between_fn
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

    if isinstance(node, Like):
        flavor, raw = _vc_node(node.operand, kinds, np)
        if flavor != "text":
            # Numeric operands stringify per row; not worth kernels.
            raise VectorFallback("LIKE over non-text operand")
        regex = node._regex
        if regex is None:
            if node.pattern.referenced_columns() or not _pure_constant(node.pattern):
                raise VectorFallback("LIKE with non-constant pattern")
            pattern_value = _vector_const(node.pattern)
            if pattern_value is None:

                def null_like_fn(
                    batch: Any, _fn: Any = raw, _np: Any = np
                ) -> tuple[Any, Any]:
                    nulls = _fn(batch)[1]
                    n = nulls.shape[0]
                    truth = _np.zeros(n, dtype=bool)
                    result_nulls = _np.ones(n, dtype=bool)
                    # Non-null values with a NULL pattern are UNKNOWN;
                    # NULL values are UNKNOWN too — all rows UNKNOWN.
                    return truth, result_nulls

                return "bool", null_like_fn
            regex = _like_to_regex(str(pattern_value))

        def like_fn(
            batch: Any,
            _fn: Any = raw,
            _match: Any = regex.fullmatch,
            _neg: bool = node.negated,
            _np: Any = np,
        ) -> tuple[Any, Any]:
            codes, nulls, dictionary = _fn(batch)
            valid = ~nulls
            m = dictionary.shape[0]
            if m == 0:
                return _np.zeros(codes.shape[0], dtype=bool), nulls
            # One regex test per *distinct* value, then a code gather.
            lookup = _np.fromiter(
                (_match(s) is not None for s in dictionary), dtype=bool, count=m
            )
            hit = lookup[codes]
            truth = (~hit & valid) if _neg else (hit & valid)
            return truth, nulls

        return "bool", like_fn

    # Case, FunctionCall, Parameter, AggregateCall, user nodes.
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
    try:
        np = _vector_np()
        flavor, raw = _vc_node(expression, kinds, np)
        bool_fn = _as_bool_closure(flavor, raw, np)
        if flavor == "const":
            truth_const = _truthy(raw)

            def predicate(batch: Any, _t: bool = truth_const, _np: Any = np) -> Any:
                if _t:
                    return _np.ones(batch.n, dtype=bool)
                return _np.zeros(batch.n, dtype=bool)

        else:

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
    try:
        np = _vector_np()
        result = _vc_node(expression, kinds, np)
    except VectorFallback as exc:
        memo[key] = exc
        raise
    memo[key] = result
    return result
