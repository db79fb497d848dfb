"""The expression compiler must agree exactly with the reference oracle.

The expression compiler (:func:`repro.db.expr.compile_expression`) is
the product's only scalar evaluator: WHERE loops, projections, GROUP BY
keys, aggregate arguments, HAVING, ORDER BY, CHECKs, trigger WHEN
guards, rules, pub/sub filters and CQ operators all call its closures.
``tests/reference/expr_oracle.py`` is an independent tree-walking
implementation of the same semantics; the two must be observably
identical — including three-valued logic (NULL → UNKNOWN), LIKE,
ranges, CASE, functions, and the errors they raise.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.db.expr import compile_expression, compile_predicate
from repro.db.index import _sort_key
from repro.db.sql.parser import parse_expression, parse_statement
from repro.errors import ExpressionError
from repro.rules.engine import EventContext
from tests.reference import expr_oracle


@st.composite
def expression_texts(draw):
    """Random value expressions over a (int), b (float), c (str)."""
    kind = draw(st.integers(0, 11))
    if kind == 10:
        # Modulo, including by a zero that is a constant, a column, and
        # a folded constant subtree: an ExpressionError at evaluation.
        divisor = draw(st.sampled_from(["0", "3", "a", "(2 - 2)", "b"]))
        return f"{draw(st.sampled_from(['a', '7', 'b']))} % {divisor}"
    if kind == 11:
        # Unary minus over text is "operator not applicable", like
        # binary minus.
        return "-" + draw(st.sampled_from(["c", "a", "'x'", "upper(c)"]))
    if kind == 0:
        return f"a + {draw(st.integers(-5, 5))} * b"
    if kind == 1:
        return f"b / {draw(st.sampled_from([2, 4, 0.5]))}"
    if kind == 2:
        return f"coalesce(a, {draw(st.integers(0, 9))})"
    if kind == 3:
        return f"upper(c) || '-{draw(st.integers(0, 9))}'"
    if kind == 4:
        return (
            f"CASE WHEN a > {draw(st.integers(0, 20))} THEN 'big' "
            f"WHEN a IS NULL THEN 'null' ELSE 'small' END"
        )
    if kind == 5:
        return f"length(c) + {draw(st.integers(0, 3))}"
    if kind == 6:
        return f"round(b, {draw(st.integers(0, 2))})"
    if kind == 7:
        return f"nullif(a, {draw(st.integers(0, 25))})"
    if kind == 8:
        return f"-a + abs(b - {draw(st.integers(0, 50))})"
    return f"{draw(st.integers(0, 9))} + {draw(st.integers(0, 9))}"


@st.composite
def predicate_texts(draw):
    """Random predicates covering every compiled node type."""
    clauses = draw(st.integers(1, 4))
    parts = []
    for _ in range(clauses):
        kind = draw(st.integers(0, 11))
        if kind == 10:
            divisor = draw(st.sampled_from(["0", "2", "a"]))
            parts.append(f"{draw(st.sampled_from(['a', '5']))} % {divisor} = 1")
        elif kind == 11:
            parts.append(f"-{draw(st.sampled_from(['c', 'a']))} < 0")
        elif kind == 0:
            op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
            parts.append(f"a {op} {draw(st.integers(0, 25))}")
        elif kind == 1:
            low = draw(st.integers(0, 50))
            high = low + draw(st.integers(0, 30))
            neg = draw(st.sampled_from(["", "NOT "]))
            parts.append(f"b {neg}BETWEEN {low} AND {high}")
        elif kind == 2:
            pattern = draw(
                st.sampled_from(["k%", "%1", "k_", "%", "_", "k1", "%k%"])
            )
            neg = draw(st.sampled_from(["", "NOT "]))
            parts.append(f"c {neg}LIKE '{pattern}'")
        elif kind == 3:
            neg = draw(st.sampled_from(["", "NOT "]))
            parts.append(f"a IS {neg}NULL")
        elif kind == 4:
            values = ", ".join(
                str(draw(st.integers(0, 25))) for _ in range(draw(st.integers(1, 3)))
            )
            neg = draw(st.sampled_from(["", "NOT "]))
            parts.append(f"a {neg}IN ({values})")
        elif kind == 5:
            parts.append(f"c = 'k{draw(st.integers(0, 8))}'")
        elif kind == 6:
            parts.append(f"NOT (b < {draw(st.integers(0, 80))})")
        elif kind == 7:
            parts.append(f"a + b > {draw(st.integers(0, 50))}")
        elif kind == 8:
            parts.append(
                "CASE WHEN c IS NULL THEN FALSE ELSE length(c) = 2 END"
            )
        else:
            parts.append(draw(st.sampled_from(["TRUE", "FALSE", "NULL"])))
    connector = draw(st.sampled_from([" AND ", " OR "]))
    return connector.join(parts)


rows = st.fixed_dictionaries(
    {
        "a": st.one_of(st.none(), st.integers(0, 25)),
        "b": st.one_of(st.none(), st.floats(0, 100, allow_nan=False)),
        "c": st.one_of(st.none(), st.sampled_from([f"k{i}" for i in range(10)])),
    }
)


def _outcome(fn, *args):
    """Value or (sentinel, message) of the raised ExpressionError."""
    try:
        return ("value", fn(*args))
    except ExpressionError as exc:
        return ("error", str(exc))


class TestCompiledVsOracle:
    @given(predicate_texts(), rows)
    @settings(max_examples=300, deadline=None)
    def test_predicates_agree_on_plain_dicts(self, text, row):
        expression = parse_expression(text)
        reference = _outcome(expr_oracle.evaluate_predicate, expression, row)
        compiled = _outcome(compile_predicate(expression), row)
        assert reference == compiled

    @given(predicate_texts(), rows)
    @settings(max_examples=300, deadline=None)
    def test_predicates_agree_on_event_contexts(self, text, row):
        """EventContext reads absent keys as NULL; both implementations
        must honor that (the compiled column lookup may not use .get)."""
        expression = parse_expression(text)
        context = EventContext({k: v for k, v in row.items() if v is not None})
        reference = _outcome(expr_oracle.evaluate_predicate, expression, context)
        compiled = _outcome(compile_predicate(expression), context)
        assert reference == compiled

    @given(predicate_texts(), rows)
    @settings(max_examples=200, deadline=None)
    def test_raw_evaluation_is_three_valued_and_identical(self, text, row):
        expression = parse_expression(text)
        reference = _outcome(expr_oracle.evaluate, expression, row)
        compiled = _outcome(compile_expression(expression), row)
        assert reference == compiled
        if reference[0] == "value":
            assert reference[1] in (True, False, None)

    @given(expression_texts(), rows)
    @settings(max_examples=300, deadline=None)
    def test_value_expressions_agree(self, text, row):
        """Arithmetic, functions, CASE, concatenation — including the
        errors they raise (division by zero, bad argument types)."""
        expression = parse_expression(text)
        reference = _outcome(expr_oracle.evaluate, expression, row)
        compiled = _outcome(compile_expression(expression), row)
        assert reference == compiled

    @given(predicate_texts())
    @settings(max_examples=100, deadline=None)
    def test_compiled_closure_is_memoized_per_node(self, text):
        expression = parse_expression(text)
        assert compile_expression(expression) is compile_expression(expression)
        assert compile_predicate(expression) is compile_predicate(expression)


# --------------------------------------------------------------------------
# The compiled call sites of the SQL executor, against a dict model
# --------------------------------------------------------------------------
#
# Projection, GROUP BY keys, aggregate arguments, HAVING and ORDER BY
# (aggregates included) all evaluate compiled closures.  The model below
# runs the same parsed statement over plain dicts with the oracle, so a
# closure that looked up the wrong scope, a stale memo shared between
# statements, or an aggregate that compiled to the wrong key shows up as
# a different result set.  REAL values are multiples of 0.5 so sums are
# exact in any order (the columnar path reduces pairwise).

_VALUES = [
    "a", "a + 1", "a * 2 - b", "coalesce(a, 0)", "length(c)", "a % 3",
    "b / 2", "-a", "abs(a - 5)", "upper(c)", "c || '-x'", "a > 5",
    "CASE WHEN a > 5 THEN 'hi' WHEN a IS NULL THEN 'null' ELSE 'lo' END",
]
_NUMBERS = ["a", "b", "a * 2 - b", "a % 3", "coalesce(a, 0) + 1", "length(c)", "-a"]
_KEYS = [
    "g", "a % 3", "coalesce(g, 'none')", "length(c)",
    "CASE WHEN a > 5 THEN 'hi' ELSE 'lo' END",
]
_PREDICATES = [
    "a > 3", "b BETWEEN 1 AND 20", "c LIKE 'k%'", "a IS NOT NULL",
    "a IN (1, 2, 3, 5, 8)", "NOT (b < 10)", "g = 'x' OR a % 2 = 0",
    "length(c) = 2 AND a + b > 4",
]


def _aggregate_text(rng, numeric=False):
    name = rng.choice(["count", "sum", "avg", "min", "max"])
    if name == "count" and rng.random() < 0.4:
        return rng.choice(["count(*)", "count(DISTINCT a)"])
    if name in ("min", "max") and not numeric and rng.random() < 0.3:
        return f"{name}(c)"
    return f"{name}({rng.choice(_NUMBERS)})"


def _statement_text(rng):
    where = f" WHERE {rng.choice(_PREDICATES)}" if rng.random() < 0.6 else ""
    if rng.random() < 0.35:
        items = ", ".join(
            f"{rng.choice(_VALUES)} AS x{i}" for i in range(rng.randint(1, 3))
        )
        direction = rng.choice(["", " DESC"])
        return (
            f"SELECT id AS id, {items} FROM t{where} "
            f"ORDER BY {rng.choice(_VALUES)}{direction}, id"
        )
    keys = rng.sample(_KEYS, rng.randint(0, 2))
    items = [f"{key} AS k{i}" for i, key in enumerate(keys)]
    items += [f"{_aggregate_text(rng)} AS v{i}" for i in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        items.append(f"{_aggregate_text(rng, numeric=True)} + count(*) AS mixed")
    text = f"SELECT {', '.join(items)} FROM t{where}"
    if keys:
        text += " GROUP BY " + ", ".join(keys)
    if rng.random() < 0.6:
        having = rng.choice(
            [
                "count(*) > 1",
                f"{_aggregate_text(rng)} IS NOT NULL",
                f"sum(a) > {rng.randint(0, 30)} OR min(a) IS NULL",
                f"count(*) + {rng.randint(0, 3)} >= max(a % 3)",
            ]
        )
        text += f" HAVING {having}"
    if keys:
        order = rng.choice(
            [f"{_aggregate_text(rng)} DESC", "count(*) * 2", "v0", "k0 DESC"]
        )
        text += f" ORDER BY {order}, " + ", ".join(
            f"k{i}" for i in range(len(keys))
        )
    return text


def _table_rows(rng, count=40):
    def maybe(value):
        return None if rng.random() < 0.15 else value

    return [
        {
            "id": i,
            "a": maybe(rng.randint(0, 12)),
            "b": maybe(rng.randint(0, 60) / 2),
            "c": maybe(rng.choice(["k1", "k22", "m3", "", "kk"])),
            "g": maybe(rng.choice(["x", "y", "z"])),
        }
        for i in range(count)
    ]


def _aggregate_nodes(select):
    from repro.db.sql.ast import AggregateCall

    found = []

    def walk(node):
        if isinstance(node, AggregateCall):
            found.append(node)
            return
        for child in node.children():
            walk(child)

    for item in select.items:
        walk(item.expression)
    if select.having is not None:
        walk(select.having)
    for order in select.order_by:
        walk(order.expression)
    return found


def _aggregate_value(node, rows):
    if node.argument is None:
        return len(rows)
    values = [expr_oracle.evaluate(node.argument, row) for row in rows]
    values = [value for value in values if value is not None]
    if node.distinct:
        values = list(dict.fromkeys(values))
    if node.name == "count":
        return len(values)
    if not values:
        return None
    if node.name == "avg":
        return sum(values) / len(values)
    return {"sum": sum, "min": min, "max": max}[node.name](values)


def _model_select(select, table_rows):
    rows = [
        row
        for row in table_rows
        if select.where is None
        or expr_oracle.evaluate_predicate(select.where, row)
    ]
    aggregates = _aggregate_nodes(select)
    if select.group_by or aggregates:
        groups = {} if select.group_by else {(): rows}
        for row in rows if select.group_by else ():
            key = tuple(expr_oracle.evaluate(k, row) for k in select.group_by)
            groups.setdefault(key, []).append(row)
        scopes = []
        for members in groups.values():
            scope = dict(members[0]) if members else {}
            for node in aggregates:
                scope[node.key] = _aggregate_value(node, members)
            if select.having is None or expr_oracle.evaluate_predicate(
                select.having, scope
            ):
                scopes.append(scope)
    else:
        scopes = rows
    pairs = []
    for scope in scopes:
        projected = {
            item.alias: expr_oracle.evaluate(item.expression, scope)
            for item in select.items
        }
        pairs.append((projected, {**scope, **projected}))
    for order in reversed(select.order_by):
        pairs.sort(
            key=lambda pair: _sort_key(
                expr_oracle.evaluate(order.expression, pair[1])
            ),
            reverse=order.descending,
        )
    return [projected for projected, _ in pairs]


class TestCompiledCallSitesVsModel:
    @pytest.mark.parametrize("vectorized", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_select_matches_dict_model(self, seed, vectorized):
        from repro.db.sql import executor

        rng = random.Random(seed)
        table_rows = _table_rows(rng)
        db = Database()
        db.execute("CREATE TABLE t (id INT, a INT, b REAL, c TEXT, g TEXT)")
        insert = db.prepare("INSERT INTO t VALUES (?, ?, ?, ?, ?)")
        for row in table_rows:
            insert.execute(list(row.values()))
        previous = executor.set_vectorized(vectorized)
        try:
            for _ in range(25):
                text = _statement_text(rng)
                expected = _model_select(parse_statement(text), table_rows)
                # Twice: the second run is served from the statement
                # cache and from closures memoized on the template.
                assert db.query(text) == expected, text
                assert db.query(text) == expected, text
        finally:
            executor.set_vectorized(previous)
