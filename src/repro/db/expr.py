"""Expression AST and its scalar compiler, with SQL three-valued logic.

This module is the single expression engine for the whole platform:
SQL ``WHERE`` clauses, ``CHECK`` constraints, trigger ``WHEN`` clauses,
the rule engine's "expressions as data", continuous-query filters, and
pub/sub content filters all evaluate the same AST, and all of them do
it through one evaluator: :func:`compile_expression` lowers a tree to a
closure.  (The batch kernels for the columnar path live in
:mod:`repro.db.expr_vector`; the tree-walking reference the tests
compare against lives in ``tests/reference/expr_oracle.py``.)

Evaluation follows SQL semantics: any comparison involving NULL yields
UNKNOWN (Python ``None``), and AND/OR/NOT implement Kleene logic.

Trees are immutable once built.  :func:`rewrite` is the one way to
derive a tree from another, and it returns the original node wherever
nothing below it changed, so per-node memos survive.

The analysis helpers (:func:`conjuncts`,
:meth:`Expression.as_equality`, :meth:`Expression.as_range`) are what
the rule-engine predicate index (EXP-4) is built on.
"""

from __future__ import annotations

import functools
import math
import operator as _operator
import re
import threading
from typing import Any, Callable, Iterator, Mapping

from repro.db.types import compare_values
from repro.errors import ExpressionError


class Expression:
    """Base class for expression AST nodes.

    Subclasses declare ``__slots__`` but the base class does not, so every
    node carries a ``__dict__`` — used for per-node memos (referenced
    columns, compiled closures) without touching each subclass.
    """

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        """Evaluate against a row (mapping of column name to value)."""
        return compile_expression(self)(row)

    def referenced_columns(self) -> frozenset[str]:
        """All column names this expression reads (memoized per node).

        The result is a frozenset: it is cached on the node and shared
        between callers, so it must never be mutated.  Shared sub-trees
        contribute their own memo instead of being re-walked.
        """
        cached = self.__dict__.get("_columns_memo")
        if cached is None:
            result: set[str] = set()
            self._collect_columns(result)
            cached = frozenset(result)
            self._columns_memo = cached
        return cached

    def _collect_columns(self, into: set[str]) -> None:
        cached = self.__dict__.get("_columns_memo")
        if cached is not None:
            into.update(cached)
            return
        for child in self.children():
            child._collect_columns(into)

    def children(self) -> Iterator["Expression"]:
        return iter(())

    def with_children(self, children: list["Expression"]) -> "Expression":
        """A copy of this node over ``children`` (given in the order
        :meth:`children` yields them).  Only nodes that have children
        implement it; :func:`rewrite` is the caller."""
        raise NotImplementedError

    def lower(self) -> "_CompiledFn":
        """The closure for a node class :func:`compile_expression` has
        no built-in lowering for (the statement-level nodes in
        :mod:`repro.db.sql.ast` override this)."""
        raise ExpressionError(
            f"cannot compile expression node {type(self).__name__}"
        )

    # -- analysis hooks used by the predicate index ---------------------

    def as_equality(self) -> tuple[str, Any] | None:
        """Return ``(column, constant)`` when this node is ``col = const``."""
        return None

    def as_range(self) -> tuple[str, Any, Any, bool, bool] | None:
        """Return ``(column, low, high, low_inclusive, high_inclusive)``
        when this node constrains one column to a constant interval.
        ``None`` bounds mean unbounded on that side."""
        return None


class Literal(Expression):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __repr__(self) -> str:
        return repr(self.value)


class ColumnRef(Expression):
    """A reference to a column, optionally qualified (``t.col``).

    Lookup tries the qualified name first, then the bare name; this lets
    the same node work against single-table rows and join rows whose
    keys are qualified.
    """

    __slots__ = ("name", "qualifier")

    def __init__(self, name: str, qualifier: str | None = None) -> None:
        self.name = name.lower()
        self.qualifier = qualifier.lower() if qualifier else None

    def __repr__(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    @property
    def full_name(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    def _collect_columns(self, into: set[str]) -> None:
        into.add(self.name)


class Parameter(Expression):
    """A ``?`` placeholder: the ``index``-th value of the running execution.

    Parameters exist only inside cached statement templates.  The tree is
    never rebound: a ``?`` lowers to a read of the parameter tuple the
    executor installs for the statement it is running on this thread
    (:func:`install_parameters`), so a template compiles once and every
    execution reads its own values.  Evaluating a parameter with no value
    installed is an error.
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:
        return f"?{self.index + 1}"


_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": _operator.add,
    "-": _operator.sub,
    "*": _operator.mul,
    "/": _operator.truediv,
    "%": _operator.mod,
}

_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}


class BinaryOp(Expression):
    """Binary operator: arithmetic, comparison, AND/OR, string ``||``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"

    def children(self) -> Iterator[Expression]:
        yield self.left
        yield self.right

    def with_children(self, children: list[Expression]) -> Expression:
        return BinaryOp(self.op, *children)

    def as_equality(self) -> tuple[str, Any] | None:
        if self.op != "=":
            return None
        if isinstance(self.left, ColumnRef) and isinstance(self.right, Literal):
            return (self.left.name, self.right.value)
        if isinstance(self.right, ColumnRef) and isinstance(self.left, Literal):
            return (self.right.name, self.left.value)
        return None

    def as_range(self) -> tuple[str, Any, Any, bool, bool] | None:
        column: str
        value: Any
        op = self.op
        if isinstance(self.left, ColumnRef) and isinstance(self.right, Literal):
            column, value = self.left.name, self.right.value
        elif isinstance(self.right, ColumnRef) and isinstance(self.left, Literal):
            column, value = self.right.name, self.left.value
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            op = flip.get(op, op)
        else:
            return None
        if value is None:
            return None
        if op == "<":
            return (column, None, value, False, False)
        if op == "<=":
            return (column, None, value, False, True)
        if op == ">":
            return (column, value, None, False, False)
        if op == ">=":
            return (column, value, None, True, False)
        if op == "=":
            return (column, value, value, True, True)
        return None


class UnaryOp(Expression):
    """Unary NOT and arithmetic negation."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expression) -> None:
        self.op = op
        self.operand = operand

    def __repr__(self) -> str:
        return f"({self.op} {self.operand!r})"

    def children(self) -> Iterator[Expression]:
        yield self.operand

    def with_children(self, children: list[Expression]) -> Expression:
        return UnaryOp(self.op, *children)


class IsNull(Expression):
    """``expr IS NULL`` / ``expr IS NOT NULL`` — never UNKNOWN."""

    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expression, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def __repr__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand!r} {suffix})"

    def children(self) -> Iterator[Expression]:
        yield self.operand

    def with_children(self, children: list[Expression]) -> Expression:
        return IsNull(children[0], self.negated)


class InList(Expression):
    """``expr IN (v1, v2, ...)`` with SQL NULL semantics."""

    __slots__ = ("operand", "items", "negated")

    def __init__(
        self, operand: Expression, items: list[Expression], negated: bool = False
    ) -> None:
        self.operand = operand
        self.items = items
        self.negated = negated

    def __repr__(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        inner = ", ".join(repr(item) for item in self.items)
        return f"({self.operand!r} {keyword} ({inner}))"

    def children(self) -> Iterator[Expression]:
        yield self.operand
        yield from self.items

    def with_children(self, children: list[Expression]) -> Expression:
        return InList(children[0], children[1:], self.negated)


class Between(Expression):
    """``expr BETWEEN low AND high`` (inclusive both ends)."""

    __slots__ = ("operand", "low", "high", "negated")

    def __init__(
        self,
        operand: Expression,
        low: Expression,
        high: Expression,
        negated: bool = False,
    ) -> None:
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def __repr__(self) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand!r} {keyword} {self.low!r} AND {self.high!r})"

    def children(self) -> Iterator[Expression]:
        yield self.operand
        yield self.low
        yield self.high

    def with_children(self, children: list[Expression]) -> Expression:
        return Between(*children, negated=self.negated)

    def as_range(self) -> tuple[str, Any, Any, bool, bool] | None:
        if self.negated:
            return None
        if (
            isinstance(self.operand, ColumnRef)
            and isinstance(self.low, Literal)
            and isinstance(self.high, Literal)
            and self.low.value is not None
            and self.high.value is not None
        ):
            return (self.operand.name, self.low.value, self.high.value, True, True)
        return None


class Like(Expression):
    """``expr LIKE pattern`` with ``%`` and ``_`` wildcards."""

    __slots__ = ("operand", "pattern", "negated", "_regex")

    def __init__(
        self, operand: Expression, pattern: Expression, negated: bool = False
    ) -> None:
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        self._regex: re.Pattern[str] | None = None
        if isinstance(pattern, Literal) and isinstance(pattern.value, str):
            self._regex = _like_to_regex(pattern.value)

    def __repr__(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand!r} {keyword} {self.pattern!r})"

    def children(self) -> Iterator[Expression]:
        yield self.operand
        yield self.pattern

    def with_children(self, children: list[Expression]) -> Expression:
        return Like(*children, negated=self.negated)


def _like_to_regex(pattern: str) -> re.Pattern[str]:
    parts: list[str] = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("".join(parts), re.DOTALL)


_cached_like_regex = functools.lru_cache(maxsize=64)(_like_to_regex)


class Case(Expression):
    """Searched CASE: ``CASE WHEN c1 THEN v1 ... ELSE d END``."""

    __slots__ = ("branches", "default")

    def __init__(
        self,
        branches: list[tuple[Expression, Expression]],
        default: Expression | None = None,
    ) -> None:
        if not branches:
            raise ExpressionError("CASE requires at least one WHEN branch")
        self.branches = branches
        self.default = default

    def __repr__(self) -> str:
        parts = [f"WHEN {c!r} THEN {v!r}" for c, v in self.branches]
        if self.default is not None:
            parts.append(f"ELSE {self.default!r}")
        return "CASE " + " ".join(parts) + " END"

    def children(self) -> Iterator[Expression]:
        for condition, value in self.branches:
            yield condition
            yield value
        if self.default is not None:
            yield self.default

    def with_children(self, children: list[Expression]) -> Expression:
        paired = 2 * len(self.branches)
        return Case(
            list(zip(children[0:paired:2], children[1:paired:2])),
            children[paired] if self.default is not None else None,
        )


def _fn_coalesce(*args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _null_guard(fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapped(*args: Any) -> Any:
        if any(arg is None for arg in args):
            return None
        return fn(*args)

    return wrapped


_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "abs": _null_guard(abs),
    "length": _null_guard(lambda s: len(str(s))),
    "lower": _null_guard(lambda s: str(s).lower()),
    "upper": _null_guard(lambda s: str(s).upper()),
    "round": _null_guard(lambda x, digits=0: round(x, int(digits))),
    "floor": _null_guard(lambda x: math.floor(x)),
    "ceil": _null_guard(lambda x: math.ceil(x)),
    "sqrt": _null_guard(lambda x: math.sqrt(x)),
    "ln": _null_guard(lambda x: math.log(x)),
    "exp": _null_guard(lambda x: math.exp(x)),
    "sign": _null_guard(lambda x: (x > 0) - (x < 0)),
    "min": _null_guard(min),
    "max": _null_guard(max),
    "coalesce": _fn_coalesce,
    "nullif": lambda a, b: None if a == b else a,
    "substr": _null_guard(
        lambda s, start, length=None: str(s)[
            int(start) - 1 : None if length is None else int(start) - 1 + int(length)
        ]
    ),
    "trim": _null_guard(lambda s: str(s).strip()),
    "instr": _null_guard(lambda s, sub: str(s).find(str(sub)) + 1),
}


def register_function(name: str, fn: Callable[..., Any]) -> None:
    """Register a scalar function usable from every expression context."""
    _FUNCTIONS[name.lower()] = fn


class FunctionCall(Expression):
    """Scalar function call, e.g. ``abs(x - y)``."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: list[Expression]) -> None:
        self.name = name.lower()
        self.args = args
        if self.name not in _FUNCTIONS:
            raise ExpressionError(f"unknown function {name!r}")

    def __repr__(self) -> str:
        inner = ", ".join(repr(arg) for arg in self.args)
        return f"{self.name}({inner})"

    def children(self) -> Iterator[Expression]:
        yield from self.args

    def with_children(self, children: list[Expression]) -> Expression:
        return FunctionCall(self.name, children)


# --------------------------------------------------------------------------
# Structural serialization — "expressions as data"
# --------------------------------------------------------------------------
#
# The tutorial highlights storing expressions *as data* inside the
# database (§2.2.c.i.2).  These converters give every expression a
# JSON-stable form so rules, subscriptions, and CHECK constraints can be
# persisted in catalog tables and journaled through the WAL.


def expression_to_dict(expression: Expression) -> dict[str, Any]:
    """Serialize an expression AST to a JSON-compatible dict."""
    if isinstance(expression, Literal):
        return {"node": "literal", "value": expression.value}
    if isinstance(expression, ColumnRef):
        return {
            "node": "column",
            "name": expression.name,
            "qualifier": expression.qualifier,
        }
    if isinstance(expression, BinaryOp):
        return {
            "node": "binary",
            "op": expression.op,
            "left": expression_to_dict(expression.left),
            "right": expression_to_dict(expression.right),
        }
    if isinstance(expression, UnaryOp):
        return {
            "node": "unary",
            "op": expression.op,
            "operand": expression_to_dict(expression.operand),
        }
    if isinstance(expression, IsNull):
        return {
            "node": "isnull",
            "operand": expression_to_dict(expression.operand),
            "negated": expression.negated,
        }
    if isinstance(expression, InList):
        return {
            "node": "in",
            "operand": expression_to_dict(expression.operand),
            "items": [expression_to_dict(item) for item in expression.items],
            "negated": expression.negated,
        }
    if isinstance(expression, Between):
        return {
            "node": "between",
            "operand": expression_to_dict(expression.operand),
            "low": expression_to_dict(expression.low),
            "high": expression_to_dict(expression.high),
            "negated": expression.negated,
        }
    if isinstance(expression, Like):
        return {
            "node": "like",
            "operand": expression_to_dict(expression.operand),
            "pattern": expression_to_dict(expression.pattern),
            "negated": expression.negated,
        }
    if isinstance(expression, Case):
        return {
            "node": "case",
            "branches": [
                [expression_to_dict(cond), expression_to_dict(value)]
                for cond, value in expression.branches
            ],
            "default": (
                expression_to_dict(expression.default)
                if expression.default is not None
                else None
            ),
        }
    if isinstance(expression, FunctionCall):
        return {
            "node": "call",
            "name": expression.name,
            "args": [expression_to_dict(arg) for arg in expression.args],
        }
    raise ExpressionError(
        f"cannot serialize expression node {type(expression).__name__}"
    )


def expression_from_dict(data: Mapping[str, Any]) -> Expression:
    """Rebuild an expression AST from :func:`expression_to_dict` output."""
    node = data.get("node")
    if node == "literal":
        return Literal(data["value"])
    if node == "column":
        return ColumnRef(data["name"], data.get("qualifier"))
    if node == "binary":
        return BinaryOp(
            data["op"],
            expression_from_dict(data["left"]),
            expression_from_dict(data["right"]),
        )
    if node == "unary":
        return UnaryOp(data["op"], expression_from_dict(data["operand"]))
    if node == "isnull":
        return IsNull(expression_from_dict(data["operand"]), data["negated"])
    if node == "in":
        return InList(
            expression_from_dict(data["operand"]),
            [expression_from_dict(item) for item in data["items"]],
            data["negated"],
        )
    if node == "between":
        return Between(
            expression_from_dict(data["operand"]),
            expression_from_dict(data["low"]),
            expression_from_dict(data["high"]),
            data["negated"],
        )
    if node == "like":
        return Like(
            expression_from_dict(data["operand"]),
            expression_from_dict(data["pattern"]),
            data["negated"],
        )
    if node == "case":
        return Case(
            [
                (expression_from_dict(cond), expression_from_dict(value))
                for cond, value in data["branches"]
            ],
            (
                expression_from_dict(data["default"])
                if data.get("default") is not None
                else None
            ),
        )
    if node == "call":
        return FunctionCall(
            data["name"], [expression_from_dict(arg) for arg in data["args"]]
        )
    raise ExpressionError(f"cannot deserialize expression node {node!r}")


# --------------------------------------------------------------------------
# Analysis helpers (rule-engine predicate index, planner)
# --------------------------------------------------------------------------


def conjuncts(expression: Expression) -> list[Expression]:
    """Split an expression on top-level ANDs.

    ``a = 1 AND b > 2 AND c LIKE 'x%'`` yields three conjuncts — the
    unit the predicate index and access-path planner both reason about.
    """
    if isinstance(expression, BinaryOp) and expression.op == "AND":
        return conjuncts(expression.left) + conjuncts(expression.right)
    return [expression]


# --------------------------------------------------------------------------
# Tree rewriting and parameter values
# --------------------------------------------------------------------------


def rewrite(
    expression: Expression, visit: Callable[[Expression], Expression | None]
) -> Expression:
    """Derive a tree from ``expression``, sharing everything unchanged.

    ``visit(node)`` returns a replacement for ``node`` (which may be
    ``node`` itself; either way descent stops there) or None to rewrite
    the node's children.  A node none of whose children changed is
    returned as is, not copied — so an untouched subtree keeps its
    identity and with it the compiled-closure and referenced-column
    memos stored on its nodes.
    """
    replacement = visit(expression)
    if replacement is not None:
        return replacement
    changed = False
    children = []
    for child in expression.children():
        rewritten = rewrite(child, visit)
        if rewritten is not child:
            changed = True
        children.append(rewritten)
    return expression.with_children(children) if changed else expression


class _ParameterValues(threading.local):
    """The ``?`` values of the statement each thread is executing."""

    values: tuple[Any, ...] = ()


_PARAMETERS = _ParameterValues()


def install_parameters(values: tuple[Any, ...]) -> tuple[Any, ...]:
    """Make ``values`` what this thread's ``?`` reads return; returns the
    values they replace.

    The executor installs a statement's values for exactly the span of
    its execution and reinstalls the returned ones when it leaves, even
    on error.  A statement that runs inside another one (a trigger, a
    subquery, a commit listener) therefore reads its own values, and the
    outer statement finds its own again when the inner one returns.
    """
    previous = _PARAMETERS.values
    _PARAMETERS.values = values
    return previous


def current_parameters() -> tuple[Any, ...]:
    """The ``?`` values of the statement executing on this thread."""
    return _PARAMETERS.values


def contains_parameters(expression: Expression) -> bool:
    """Whether any :class:`Parameter` appears in this tree (memoized).

    Walks via :meth:`Expression.children`, so parameters inside
    ``IN (SELECT ...)`` / ``EXISTS`` subqueries are *not* seen here.
    """
    flag = expression.__dict__.get("_params_memo")
    if flag is None:
        if isinstance(expression, Parameter):
            flag = True
        else:
            flag = any(contains_parameters(child) for child in expression.children())
        expression._params_memo = flag
    return flag


def substitute_parameters(
    expression: Expression, params: tuple[Any, ...]
) -> Expression:
    """Rewrite ``?`` placeholders into literals, sharing param-free subtrees.

    Only the columnar path uses it: its kernels specialize to constant
    values (see :mod:`repro.db.expr_vector`), so it compiles the tree with
    one execution's values substituted.  Everything else reads ``?`` at
    run time.
    """
    if not contains_parameters(expression):
        return expression

    def visit(node: Expression) -> Expression | None:
        if isinstance(node, Parameter):
            if node.index >= len(params):
                raise ExpressionError(f"unbound parameter ?{node.index + 1}")
            return Literal(params[node.index])
        return None if contains_parameters(node) else node

    return rewrite(expression, visit)


# --------------------------------------------------------------------------
# Expression compilation
# --------------------------------------------------------------------------
#
# ``compile_expression`` lowers an AST into a single Python closure:
# constant subtrees are folded at compile time, AND/OR keep Kleene
# short-circuit semantics, column lookups are pre-resolved, and constant
# LIKE patterns reuse their pre-built regex.  Node classes defined
# elsewhere (aggregates, subquery placeholders) supply their own closure
# through ``Expression.lower``.  Compiling never raises for a tree the
# parser can produce: anything that cannot be evaluated (an unbound
# parameter, ``5 % 0``) lowers to a closure that raises
# ``ExpressionError`` when it is called.
#
# Closures are memoized per node (``_compiled_memo``), so shared
# sub-trees — and rule conditions evaluated millions of times — compile
# exactly once.  Trees must not be mutated in place after compilation;
# build a new tree (or call the owner's ``recompile()``) instead.
#
# Compiled closures bind their constants as *default arguments* rather
# than closure cells, and the dominant ``column <op> literal`` leaf
# shapes are fused into one closure each.  Both choices exist for the
# same reason: every function object, cell, and closure tuple a rule
# set retains is walked by each full garbage collection, and at 10k+
# registered rules that walk dominated rule evaluation.  Fusing cuts the
# per-rule long-lived object count roughly 3x (and saves a call per
# operand).

_CompiledFn = Callable[[Mapping[str, Any]], Any]


def compile_expression(expression: Expression) -> _CompiledFn:
    """Lower ``expression`` to a closure ``fn(row) -> value`` (memoized)."""
    fn = expression.__dict__.get("_compiled_memo")
    if fn is None:
        fn, const = _compile_node(expression)
        expression._compiled_memo = fn
        expression._compiled_const = const
    return fn


def compile_predicate(
    expression: Expression,
) -> Callable[[Mapping[str, Any]], bool]:
    """Lower ``expression`` to ``fn(row) -> bool``: UNKNOWN maps to False."""
    pred = expression.__dict__.get("_predicate_memo")
    if pred is None:
        fn = compile_expression(expression)

        def pred(row: Mapping[str, Any], _fn: _CompiledFn = fn) -> bool:
            value = _fn(row)
            return value is not None and bool(value)

        expression._predicate_memo = pred
    return pred


def _compile_child(node: Expression) -> tuple[_CompiledFn, bool]:
    fn = node.__dict__.get("_compiled_memo")
    if fn is None:
        fn, const = _compile_node(node)
        node._compiled_memo = fn
        node._compiled_const = const
        return fn, const
    return fn, node.__dict__.get("_compiled_const", False)


def _fold_constant(fn: _CompiledFn) -> tuple[_CompiledFn, bool]:
    """Evaluate a closure with all-constant inputs once, at compile time.

    Errors (division by zero, type mismatches) are left to evaluation
    time: registering a rule or planning a statement never raises them.
    """
    try:
        value = fn({})
    except ExpressionError:
        return fn, False
    return (lambda row: value), True


def raises_at_evaluation(message: str) -> _CompiledFn:
    """The lowering of a node that may exist in a tree but never be
    evaluated: compiles fine, raises ``ExpressionError`` when called."""

    def raise_fn(row: Mapping[str, Any], _message: str = message) -> Any:
        raise ExpressionError(_message)

    return raise_fn


def _not_applicable(op: str, *values: Any) -> ExpressionError:
    types = " and ".join(type(value).__name__ for value in values)
    return ExpressionError(f"operator {op!r} not applicable to {types}")


def _compile_node(node: Expression) -> tuple[_CompiledFn, bool]:
    """Lower one node; returns ``(closure, is_constant)``."""
    if isinstance(node, Literal):
        value = node.value
        return (lambda row: value), True

    if isinstance(node, ColumnRef):
        # ``in`` + ``[]``, never ``.get``: mapping types that override
        # __contains__/__missing__ (EventContext reads absent keys as
        # NULL) must see their own protocol.
        if node.qualifier:
            name = node.name
            qualified = node.full_name

            def column_fn(
                row: Mapping[str, Any],
                _qualified: str = qualified,
                _name: str = name,
            ) -> Any:
                if _qualified in row:
                    return row[_qualified]
                if _name in row:
                    return row[_name]
                raise ExpressionError(f"unknown column {_qualified!r}")

            return column_fn, False
        bare_fn = _fused_column_lookup(node)
        assert bare_fn is not None
        return bare_fn, False

    if isinstance(node, Parameter):

        def parameter_fn(
            row: Mapping[str, Any],
            _index: int = node.index,
            _bound: _ParameterValues = _PARAMETERS,
        ) -> Any:
            try:
                return _bound.values[_index]
            except IndexError:
                raise ExpressionError(f"unbound parameter ?{_index + 1}") from None

        return parameter_fn, False

    if isinstance(node, BinaryOp):
        return _compile_binary(node)

    if isinstance(node, UnaryOp):
        operand_fn, const = _compile_child(node.operand)
        if node.op == "NOT":

            def not_fn(row: Mapping[str, Any]) -> Any:
                value = operand_fn(row)
                if value is None:
                    return None
                return not value

        elif node.op == "-":

            def not_fn(row: Mapping[str, Any]) -> Any:
                value = operand_fn(row)
                if value is None:
                    return None
                try:
                    return -value
                except TypeError:
                    raise _not_applicable("-", value) from None

        else:
            message = f"unknown unary operator {node.op!r}"
            return raises_at_evaluation(message), False
        return _fold_constant(not_fn) if const else (not_fn, False)

    if isinstance(node, IsNull):
        operand_fn, const = _compile_child(node.operand)
        if node.negated:

            def isnull_fn(row: Mapping[str, Any]) -> Any:
                return operand_fn(row) is not None

        else:

            def isnull_fn(row: Mapping[str, Any]) -> Any:
                return operand_fn(row) is None

        return _fold_constant(isnull_fn) if const else (isnull_fn, False)

    if isinstance(node, InList):
        operand_fn, operand_const = _compile_child(node.operand)
        item_infos = [_compile_child(item) for item in node.items]
        negated = node.negated
        items_const = all(const for _, const in item_infos)
        if items_const:
            raw = [fn({}) for fn, _ in item_infos]
            saw_null_const = any(candidate is None for candidate in raw)
            candidates = tuple(c for c in raw if c is not None)

            def in_fn(
                row: Mapping[str, Any],
                _operand: _CompiledFn = operand_fn,
                _cands: tuple[Any, ...] = candidates,
                _saw_null: bool = saw_null_const,
                _neg: bool = negated,
                _cmp: Callable[[Any, Any], int] = compare_values,
            ) -> Any:
                value = _operand(row)
                if value is None:
                    return None
                for candidate in _cands:
                    if _cmp(value, candidate) == 0:
                        return not _neg
                if _saw_null:
                    return None
                return _neg

        else:
            item_fns = [fn for fn, _ in item_infos]

            def in_fn(row: Mapping[str, Any]) -> Any:
                value = operand_fn(row)
                if value is None:
                    return None
                saw_null = False
                for item_fn in item_fns:
                    candidate = item_fn(row)
                    if candidate is None:
                        saw_null = True
                    elif compare_values(value, candidate) == 0:
                        return not negated
                if saw_null:
                    return None
                return negated

        if operand_const and items_const:
            return _fold_constant(in_fn)
        return in_fn, False

    if isinstance(node, Between):
        value_fn, value_const = _compile_child(node.operand)
        low_fn, low_const = _compile_child(node.low)
        high_fn, high_const = _compile_child(node.high)
        negated = node.negated

        if low_const and high_const and not value_const:
            # The common rule/WHERE shape: constant bounds evaluated at
            # compile time, one closure, no per-row bound calls.
            low_value = low_fn({})
            high_value = high_fn({})
            if (
                isinstance(node.operand, ColumnRef)
                and not node.operand.qualifier
                and low_value is not None
                and high_value is not None
            ):
                # Fully fused: lookup + range check in one closure.
                def between_col_fn(
                    row: Mapping[str, Any],
                    _name: str = node.operand.name,
                    _low: Any = low_value,
                    _high: Any = high_value,
                    _neg: bool = negated,
                    _cmp: Callable[[Any, Any], int] = compare_values,
                ) -> Any:
                    if _name in row:
                        value = row[_name]
                    else:
                        raise ExpressionError(f"unknown column {_name!r}")
                    if value is None:
                        return None
                    inside = _cmp(value, _low) >= 0 and _cmp(value, _high) <= 0
                    return not inside if _neg else inside

                return between_col_fn, False

            def between_fn(
                row: Mapping[str, Any],
                _value: _CompiledFn = value_fn,
                _low: Any = low_value,
                _high: Any = high_value,
                _neg: bool = negated,
                _cmp: Callable[[Any, Any], int] = compare_values,
            ) -> Any:
                value = _value(row)
                if value is None or _low is None or _high is None:
                    return None
                inside = _cmp(value, _low) >= 0 and _cmp(value, _high) <= 0
                return not inside if _neg else inside

            return between_fn, False

        def between_fn(
            row: Mapping[str, Any],
            _value: _CompiledFn = value_fn,
            _low_fn: _CompiledFn = low_fn,
            _high_fn: _CompiledFn = high_fn,
            _neg: bool = negated,
            _cmp: Callable[[Any, Any], int] = compare_values,
        ) -> Any:
            value = _value(row)
            low = _low_fn(row)
            high = _high_fn(row)
            if value is None or low is None or high is None:
                return None
            inside = _cmp(value, low) >= 0 and _cmp(value, high) <= 0
            return not inside if _neg else inside

        if value_const and low_const and high_const:
            return _fold_constant(between_fn)
        return between_fn, False

    if isinstance(node, Like):
        operand_fn, operand_const = _compile_child(node.operand)
        negated = node.negated
        if node._regex is not None:

            def like_fn(
                row: Mapping[str, Any],
                _operand: _CompiledFn = operand_fn,
                _match: Callable[[str], Any] = node._regex.fullmatch,
                _neg: bool = negated,
            ) -> Any:
                value = _operand(row)
                if value is None:
                    return None
                matched = _match(str(value)) is not None
                return not matched if _neg else matched

            if operand_const:
                return _fold_constant(like_fn)
        elif isinstance(node.pattern, Parameter):
            # One pattern per execution, not per row: reuse its regex.
            pattern_fn, _ = _compile_child(node.pattern)

            def like_fn(
                row: Mapping[str, Any],
                _operand: _CompiledFn = operand_fn,
                _pattern: _CompiledFn = pattern_fn,
                _regex: Callable[[str], re.Pattern[str]] = _cached_like_regex,
                _neg: bool = negated,
            ) -> Any:
                value = _operand(row)
                if value is None:
                    return None
                pattern_value = _pattern(row)
                if pattern_value is None:
                    return None
                matched = _regex(str(pattern_value)).fullmatch(str(value)) is not None
                return not matched if _neg else matched

        else:
            pattern_fn, _ = _compile_child(node.pattern)

            def like_fn(row: Mapping[str, Any]) -> Any:
                value = operand_fn(row)
                if value is None:
                    return None
                pattern_value = pattern_fn(row)
                if pattern_value is None:
                    return None
                matched = (
                    _like_to_regex(str(pattern_value)).fullmatch(str(value))
                    is not None
                )
                return not matched if negated else matched

        return like_fn, False

    if isinstance(node, Case):
        branch_fns = [
            (_compile_child(condition), _compile_child(value))
            for condition, value in node.branches
        ]
        compiled_branches = [
            (condition_info[0], value_info[0])
            for condition_info, value_info in branch_fns
        ]
        default_info = (
            _compile_child(node.default) if node.default is not None else None
        )
        default_fn = default_info[0] if default_info is not None else None

        def case_fn(row: Mapping[str, Any]) -> Any:
            for condition_fn, value_fn in compiled_branches:
                if condition_fn(row):
                    return value_fn(row)
            if default_fn is not None:
                return default_fn(row)
            return None

        all_const = all(
            condition_info[1] and value_info[1]
            for condition_info, value_info in branch_fns
        ) and (default_info is None or default_info[1])
        return _fold_constant(case_fn) if all_const else (case_fn, False)

    if isinstance(node, FunctionCall):
        # Never folded: registered functions may be impure, and
        # re-registration under the same name must take effect — so the
        # registry is consulted per call.
        name = node.name
        arg_fns = [_compile_child(arg)[0] for arg in node.args]

        def call_fn(row: Mapping[str, Any]) -> Any:
            values = [arg_fn(row) for arg_fn in arg_fns]
            try:
                return _FUNCTIONS[name](*values)
            except (ValueError, TypeError) as exc:
                raise ExpressionError(f"{name}(): {exc}") from None

        return call_fn, False

    # Aggregates and subquery placeholders bring their own closure.
    return node.lower(), False


# Comparison result (-1/0/1 from compare_values) -> acceptable values.
_CMP_OK: dict[str, tuple[int, ...]] = {
    "=": (0,),
    "!=": (-1, 1),
    "<": (-1,),
    "<=": (-1, 0),
    ">": (1,),
    ">=": (0, 1),
}

_CMP_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


def _fused_column_lookup(node: ColumnRef) -> _CompiledFn | None:
    """Single-closure column fetch for bare (unqualified) references."""
    if node.qualifier:
        return None
    name = node.name

    def column_fn(row: Mapping[str, Any], _name: str = name) -> Any:
        if _name in row:
            return row[_name]
        raise ExpressionError(f"unknown column {_name!r}")

    return column_fn


def _fused_comparison(node: BinaryOp) -> _CompiledFn | None:
    """Fuse ``col <op> literal`` (either orientation) into one closure.

    Mirrors the generic path exactly: the column lookup uses the
    ``in`` + ``[]`` protocol (EventContext-compatible), missing columns
    raise, and a NULL on either side yields UNKNOWN.
    """
    op = node.op
    if isinstance(node.left, ColumnRef) and isinstance(node.right, Literal):
        column, const = node.left, node.right.value
    elif isinstance(node.right, ColumnRef) and isinstance(node.left, Literal):
        column, const = node.right, node.left.value
        op = _CMP_FLIP[op]
    else:
        return None
    if column.qualifier:
        return None
    name = column.name
    if const is None:
        # literal NULL: the lookup still runs (missing columns raise),
        # but the comparison is always UNKNOWN.
        def null_cmp_fn(row: Mapping[str, Any], _name: str = name) -> Any:
            if _name in row:
                return None
            raise ExpressionError(f"unknown column {_name!r}")

        return null_cmp_fn
    ok = _CMP_OK[op]

    def cmp_fn(
        row: Mapping[str, Any],
        _name: str = name,
        _const: Any = const,
        _ok: tuple[int, ...] = ok,
        _cmp: Callable[[Any, Any], int] = compare_values,
    ) -> Any:
        if _name in row:
            value = row[_name]
        else:
            raise ExpressionError(f"unknown column {_name!r}")
        if value is None:
            return None
        return _cmp(value, _const) in _ok

    return cmp_fn


def _compile_binary(node: BinaryOp) -> tuple[_CompiledFn, bool]:
    op = node.op

    if op in _COMPARISONS:
        fused = _fused_comparison(node)
        if fused is not None:
            return fused, False

    left_fn, left_const = _compile_child(node.left)
    right_fn, right_const = _compile_child(node.right)
    both_const = left_const and right_const

    if op == "AND":

        def bin_fn(
            row: Mapping[str, Any],
            _left: _CompiledFn = left_fn,
            _right: _CompiledFn = right_fn,
        ) -> Any:
            left = _left(row)
            if left is not None and not left:
                return False
            right = _right(row)
            if right is not None and not right:
                return False
            if left is None or right is None:
                return None
            return True

    elif op == "OR":

        def bin_fn(
            row: Mapping[str, Any],
            _left: _CompiledFn = left_fn,
            _right: _CompiledFn = right_fn,
        ) -> Any:
            left = _left(row)
            if left:
                return True
            right = _right(row)
            if right:
                return True
            if left is None or right is None:
                return None
            return False

    elif op in _COMPARISONS:
        ok = _CMP_OK[op]

        def bin_fn(
            row: Mapping[str, Any],
            _left: _CompiledFn = left_fn,
            _right: _CompiledFn = right_fn,
            _ok: tuple[int, ...] = ok,
            _cmp: Callable[[Any, Any], int] = compare_values,
        ) -> Any:
            left = _left(row)
            right = _right(row)
            if left is None or right is None:
                return None
            return _cmp(left, right) in _ok

    elif op == "||":

        def bin_fn(
            row: Mapping[str, Any],
            _left: _CompiledFn = left_fn,
            _right: _CompiledFn = right_fn,
        ) -> Any:
            left = _left(row)
            right = _right(row)
            if left is None or right is None:
                return None
            return str(left) + str(right)

    elif op in ("/", "%"):

        def bin_fn(
            row: Mapping[str, Any],
            _left: _CompiledFn = left_fn,
            _right: _CompiledFn = right_fn,
            _arith: Callable[[Any, Any], Any] = _ARITHMETIC[op],
            _op: str = op,
        ) -> Any:
            left = _left(row)
            right = _right(row)
            if left is None or right is None:
                return None
            if right == 0:
                raise ExpressionError("division by zero")
            try:
                return _arith(left, right)
            except (TypeError, ValueError):
                raise _not_applicable(_op, left, right) from None

    elif op in _ARITHMETIC:

        def bin_fn(
            row: Mapping[str, Any],
            _left: _CompiledFn = left_fn,
            _right: _CompiledFn = right_fn,
            _arith: Callable[[Any, Any], Any] = _ARITHMETIC[op],
            _op: str = op,
        ) -> Any:
            left = _left(row)
            right = _right(row)
            if left is None or right is None:
                return None
            try:
                return _arith(left, right)
            except TypeError:
                raise _not_applicable(_op, left, right) from None

    else:
        return raises_at_evaluation(f"unknown operator {op!r}"), False

    return _fold_constant(bin_fn) if both_const else (bin_fn, False)


# --------------------------------------------------------------------------
# Delta-update compilation (incremental view maintenance)
# --------------------------------------------------------------------------
#
# A materialized view's per-row work is fixed at definition time: test
# the view predicate, extract the grouping key, extract one value per
# aggregate.  ``compile_delta_update`` lowers all of that into a single
# closure — the same treatment rule predicates got in the compiled rule
# engine — so applying a delta batch is a tight loop over row dicts
# with no AST interpretation on the hot path.

_DeltaFn = Callable[[Mapping[str, Any]], "tuple[Any, dict[str, Any]] | None"]


def compile_delta_update(
    extractors: Mapping[str, Expression],
    predicate: Expression | None = None,
    key: Expression | None = None,
) -> _DeltaFn:
    """Compile a view's row-delta into one closure.

    The closure maps a row to ``(group_key, {output: value})``, or
    ``None`` when the row fails ``predicate`` (so the delta does not
    touch the view).  All sub-expressions share the per-node compiled
    memos, so repeated view definitions over the same trees reuse work.
    """
    pred_fn = compile_predicate(predicate) if predicate is not None else None
    key_fn = compile_expression(key) if key is not None else None
    items = tuple(
        (output, compile_expression(expression))
        for output, expression in extractors.items()
    )

    def delta_fn(
        row: Mapping[str, Any],
        _pred: Callable[[Mapping[str, Any]], bool] | None = pred_fn,
        _key: _CompiledFn | None = key_fn,
        _items: tuple[tuple[str, _CompiledFn], ...] = items,
    ) -> tuple[Any, dict[str, Any]] | None:
        if _pred is not None and not _pred(row):
            return None
        group = _key(row) if _key is not None else None
        return group, {output: fn(row) for output, fn in _items}

    return delta_fn
