"""Tree-walking reference evaluator for the expression AST.

This is the interpreter that used to live on the node classes in
``repro.db.expr``.  The product has one scalar evaluator (the closure
compiler); this oracle shares nothing with it but the AST and
``compare_values``, so ``tests/properties/test_expr_equivalence.py``
still compares two independent implementations of SQL three-valued
logic, LIKE, ranges, CASE, functions and the errors they raise.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.db import expr
from repro.db.sql import ast
from repro.db.types import compare_values
from repro.errors import ExpressionError

_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}

_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


def _truthy(value: Any) -> bool:
    """SQL condition result to Python bool: UNKNOWN/NULL counts as false."""
    return bool(value) and value is not None


def evaluate_predicate(node: expr.Expression, row: Mapping[str, Any]) -> bool:
    """Evaluate a boolean expression, mapping UNKNOWN to False."""
    return _truthy(evaluate(node, row))


def evaluate(node: expr.Expression, row: Mapping[str, Any]) -> Any:
    """Evaluate ``node`` against a row (mapping of column name to value)."""
    if isinstance(node, expr.Literal):
        return node.value
    if isinstance(node, expr.ColumnRef):
        if node.qualifier:
            qualified = f"{node.qualifier}.{node.name}"
            if qualified in row:
                return row[qualified]
        if node.name in row:
            return row[node.name]
        raise ExpressionError(f"unknown column {node.full_name!r}")
    if isinstance(node, expr.Parameter):
        raise ExpressionError(f"unbound parameter ?{node.index + 1}")
    if isinstance(node, expr.BinaryOp):
        return _binary(node, row)
    if isinstance(node, expr.UnaryOp):
        value = evaluate(node.operand, row)
        if node.op == "NOT":
            return None if value is None else not _truthy(value)
        if node.op == "-":
            if value is None:
                return None
            if not isinstance(value, (int, float)):
                raise ExpressionError(
                    f"operator '-' not applicable to {type(value).__name__}"
                )
            return -value
        raise ExpressionError(f"unknown unary operator {node.op!r}")
    if isinstance(node, expr.IsNull):
        is_null = evaluate(node.operand, row) is None
        return not is_null if node.negated else is_null
    if isinstance(node, expr.InList):
        value = evaluate(node.operand, row)
        if value is None:
            return None
        saw_null = False
        for item in node.items:
            candidate = evaluate(item, row)
            if candidate is None:
                saw_null = True
            elif compare_values(value, candidate) == 0:
                return not node.negated
        return None if saw_null else node.negated
    if isinstance(node, expr.Between):
        value = evaluate(node.operand, row)
        low = evaluate(node.low, row)
        high = evaluate(node.high, row)
        if value is None or low is None or high is None:
            return None
        inside = compare_values(value, low) >= 0 and compare_values(value, high) <= 0
        return not inside if node.negated else inside
    if isinstance(node, expr.Like):
        value = evaluate(node.operand, row)
        if value is None:
            return None
        pattern = evaluate(node.pattern, row)
        if pattern is None:
            return None
        matched = expr._like_to_regex(str(pattern)).fullmatch(str(value)) is not None
        return not matched if node.negated else matched
    if isinstance(node, expr.Case):
        for condition, value in node.branches:
            if _truthy(evaluate(condition, row)):
                return evaluate(value, row)
        return None if node.default is None else evaluate(node.default, row)
    if isinstance(node, expr.FunctionCall):
        values = [evaluate(arg, row) for arg in node.args]
        try:
            return expr._FUNCTIONS[node.name](*values)
        except (ValueError, TypeError) as exc:
            raise ExpressionError(f"{node.name}(): {exc}") from None
    if isinstance(node, ast.AggregateCall):
        # The executor evaluates grouped expressions against a row that
        # carries each aggregate's value under its key.
        if node.key in row:
            return row[node.key]
        raise ExpressionError(f"aggregate {node.name}() not allowed in this context")
    if isinstance(node, ast.InSelect):
        raise ExpressionError("IN (SELECT ...) must be resolved by the executor")
    if isinstance(node, ast.ExistsSelect):
        raise ExpressionError("EXISTS (SELECT ...) must be resolved by the executor")
    raise ExpressionError(f"cannot evaluate expression node {type(node).__name__}")


def _binary(node: expr.BinaryOp, row: Mapping[str, Any]) -> Any:
    op = node.op
    if op == "AND":
        left = evaluate(node.left, row)
        if left is not None and not _truthy(left):
            return False  # FALSE AND anything = FALSE (short circuit)
        right = evaluate(node.right, row)
        if right is not None and not _truthy(right):
            return False
        return None if left is None or right is None else True
    if op == "OR":
        left = evaluate(node.left, row)
        if _truthy(left):
            return True  # TRUE OR anything = TRUE (short circuit)
        right = evaluate(node.right, row)
        if _truthy(right):
            return True
        return None if left is None or right is None else False

    left = evaluate(node.left, row)
    right = evaluate(node.right, row)
    if op not in _COMPARISONS and op != "||" and op not in _ARITHMETIC:
        raise ExpressionError(f"unknown operator {op!r}")
    if left is None or right is None:
        return None
    if op in _COMPARISONS:
        cmp = compare_values(left, right)
        return {
            "=": cmp == 0,
            "!=": cmp != 0,
            "<": cmp < 0,
            "<=": cmp <= 0,
            ">": cmp > 0,
            ">=": cmp >= 0,
        }[op]
    if op == "||":
        return str(left) + str(right)
    if op in ("/", "%") and right == 0:
        raise ExpressionError("division by zero")
    try:
        return _ARITHMETIC[op](left, right)
    except (TypeError, ValueError):
        raise ExpressionError(
            f"operator {op!r} not applicable to "
            f"{type(left).__name__} and {type(right).__name__}"
        ) from None
