"""Statement execution against a :class:`repro.db.database.Database`.

The executor receives the database facade, the current connection, a
statement template and the execution's ``?`` values.  It routes every
mutation through the database's core ``insert_row``/``update_row``/
``delete_row`` methods so SQL and the programmatic API share one code
path (locks, WAL, triggers, undo).

A template is never rebound: its ``?`` values are installed for the span
of the execution (:func:`repro.db.expr.install_parameters`) and read by
the compiled closures, so what a template needs at every execution is
derived once and memoized on its nodes — the compiled projection, the
aggregates, whether rows need alias-qualified keys, and (per schema
version) the planner's access plan.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.db.expr import (
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    Literal,
    compile_expression,
    compile_predicate,
    current_parameters,
    install_parameters,
    rewrite,
    substitute_parameters,
)
from repro.db.expr_vector import (
    INT64_MAX,
    VectorFallback,
    compile_vector_extractor,
    compile_vector_predicate,
)
from repro.db.index import _sort_key
from repro.db.sql.ast import (
    AggregateCall,
    BeginStatement,
    CommitStatement,
    CreateIndex,
    CreateTable,
    CreateTrigger,
    Delete,
    DropIndex,
    DropTable,
    DropTrigger,
    ExistsSelect,
    Explain,
    InSelect,
    Insert,
    JoinClause,
    RollbackStatement,
    SavepointStatement,
    Select,
    SelectItem,
    Statement,
    Update,
)
from repro.db.sql.planner import AccessPath, plan_access
from repro.db.triggers import TriggerEvent, TriggerTiming
from repro.db.types import equality_key
from repro.errors import DatabaseError, ExpressionError, SqlSyntaxError

if TYPE_CHECKING:
    from repro.db.database import Connection, Database


@dataclass
class Result:
    """Outcome of one statement execution."""

    columns: list[str] = field(default_factory=list)
    rows: list[dict[str, Any]] = field(default_factory=list)
    rowcount: int = 0
    lastrowid: int | None = None

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """First column of the first row (e.g. ``SELECT count(*)``)."""
        if not self.rows:
            return None
        first = self.rows[0]
        if not self.columns:
            return next(iter(first.values()), None)
        return first[self.columns[0]]

    def column(self, name: str) -> list[Any]:
        return [row[name] for row in self.rows]


def execute(
    db: "Database",
    conn: "Connection",
    statement: Statement,
    params: tuple[Any, ...] = (),
) -> Result:
    """Execute a parsed statement with ``params`` as its ``?`` values;
    transaction control is handled by the connection before this is
    reached."""
    outer = install_parameters(params)
    try:
        return _execute(db, conn, statement)
    finally:
        install_parameters(outer)


def _execute(db: "Database", conn: "Connection", statement: Statement) -> Result:
    if isinstance(statement, Explain):
        return _execute_explain(db, conn, statement)
    if isinstance(statement, Select):
        return _execute_select(db, conn, statement)
    if isinstance(statement, Insert):
        return _execute_insert(db, conn, statement)
    if isinstance(statement, Update):
        return _execute_update(db, conn, statement)
    if isinstance(statement, Delete):
        return _execute_delete(db, conn, statement)
    if isinstance(statement, CreateTable):
        db.create_table_from_def(conn, statement)
        return Result()
    if isinstance(statement, DropTable):
        db.drop_table(statement.table, if_exists=statement.if_exists, conn=conn)
        return Result()
    if isinstance(statement, CreateIndex):
        db.create_index(
            statement.name,
            statement.table,
            statement.column,
            unique=statement.unique,
            kind=statement.kind,
            conn=conn,
        )
        return Result()
    if isinstance(statement, DropIndex):
        db.drop_index(statement.name, statement.table)
        return Result()
    if isinstance(statement, CreateTrigger):
        db.create_trigger_from_def(statement)
        return Result()
    if isinstance(statement, DropTrigger):
        db.drop_trigger(statement.name)
        return Result()
    if isinstance(
        statement,
        (BeginStatement, CommitStatement, RollbackStatement, SavepointStatement),
    ):
        raise DatabaseError(
            "transaction control must be handled by the connection"
        )
    raise DatabaseError(f"unsupported statement {type(statement).__name__}")


def _execute_explain(db: "Database", conn: "Connection", stmt: Explain) -> Result:
    """Describe the access path the inner statement would use."""
    steps: list[str] = []
    inner = stmt.statement
    if isinstance(inner, (Update, Delete)):
        table = db.catalog.table(inner.table)
        steps.append(_access_path(db, inner, table, inner.where).explain())
        steps.append(
            "UPDATE rows" if isinstance(inner, Update) else "DELETE rows"
        )
    elif isinstance(inner, Select):
        if inner.table is None:
            steps.append("CONSTANT (no table)")
        else:
            if inner.joins:
                steps.append(f"SCAN {inner.table}")
                for join in inner.joins:
                    strategy = (
                        "HASH JOIN"
                        if _equi_join_columns(join.on, join.alias or join.table)
                        else "NESTED LOOP"
                    )
                    steps.append(f"{strategy} {join.kind.upper()} {join.table}")
                if inner.where is not None:
                    steps.append("FILTER residual WHERE")
            else:
                table = db.catalog.table(inner.table)
                steps.append(_access_path(db, inner, table, inner.where).explain())
        if inner.group_by or _select_shape(inner).aggregates:
            steps.append("AGGREGATE")
        if inner.distinct:
            steps.append("DISTINCT")
        if inner.order_by:
            steps.append("SORT")
        if inner.limit is not None or inner.offset:
            steps.append("LIMIT/OFFSET")
    else:
        raise DatabaseError("EXPLAIN supports SELECT, UPDATE, and DELETE")
    rows = [{"step": index + 1, "operation": text}
            for index, text in enumerate(steps)]
    return Result(columns=["step", "operation"], rows=rows, rowcount=len(rows))


# --------------------------------------------------------------------------
# DML
# --------------------------------------------------------------------------


def _execute_insert(db: "Database", conn: "Connection", stmt: Insert) -> Result:
    table = db.catalog.table(stmt.table)
    schema = table.schema
    txid = conn.require_transaction().txid
    db.fire_statement_triggers(
        table.name, TriggerEvent.INSERT, TriggerTiming.BEFORE, txid, 0, connection=conn
    )
    result = Result()
    if stmt.select is not None:
        selected = _execute_select(db, conn, stmt.select)
        # Positional semantics: SELECT output maps onto the target's
        # declared columns (or the explicit column list) by position.
        names = (
            stmt.columns if stmt.columns is not None else schema.column_names
        )
        if len(names) != len(selected.columns):
            raise SqlSyntaxError(
                f"INSERT target has {len(names)} columns; SELECT produced "
                f"{len(selected.columns)}"
            )
        for source_row in selected.rows:
            values = {
                name: source_row[column]
                for name, column in zip(names, selected.columns)
            }
            result.lastrowid = db.insert_row(stmt.table, values, conn=conn)
            result.rowcount += 1
        db.fire_statement_triggers(
            table.name, TriggerEvent.INSERT, TriggerTiming.AFTER, txid,
            result.rowcount, connection=conn,
        )
        return result
    for value_exprs in stmt.rows:
        if stmt.columns is not None:
            if len(stmt.columns) != len(value_exprs):
                raise SqlSyntaxError(
                    f"INSERT has {len(value_exprs)} values for "
                    f"{len(stmt.columns)} columns"
                )
            names = stmt.columns
        else:
            if len(value_exprs) != len(schema.columns):
                raise SqlSyntaxError(
                    f"INSERT has {len(value_exprs)} values; table "
                    f"{schema.name!r} has {len(schema.columns)} columns"
                )
            names = schema.column_names
        values = {
            name: compile_expression(expression)({})
            for name, expression in zip(names, value_exprs)
        }
        result.lastrowid = db.insert_row(stmt.table, values, conn=conn)
        result.rowcount += 1
    db.fire_statement_triggers(
        table.name, TriggerEvent.INSERT, TriggerTiming.AFTER, txid, result.rowcount, connection=conn
    )
    return result


def _execute_update(db: "Database", conn: "Connection", stmt: Update) -> Result:
    db.lock_table_exclusive(conn, stmt.table)
    table = db.catalog.table(stmt.table)
    txid = conn.require_transaction().txid
    db.fire_statement_triggers(
        table.name, TriggerEvent.UPDATE, TriggerTiming.BEFORE, txid, 0, connection=conn
    )
    where = _resolve_subqueries(db, conn, stmt.where)
    compiled_assignments = [
        (column, compile_expression(_resolve_subqueries(db, conn, expression)))
        for column, expression in stmt.assignments
    ]
    path = _access_path(db, stmt, table, where)
    count = db.update_rows(
        stmt.table,
        [
            (
                rowid,
                {
                    column: assignment_fn(row)
                    for column, assignment_fn in compiled_assignments
                },
            )
            for rowid, row in path.rows()
        ],
        conn=conn,
    )
    db.fire_statement_triggers(
        table.name, TriggerEvent.UPDATE, TriggerTiming.AFTER, txid, count, connection=conn
    )
    return Result(rowcount=count)


def _execute_delete(db: "Database", conn: "Connection", stmt: Delete) -> Result:
    db.lock_table_exclusive(conn, stmt.table)
    table = db.catalog.table(stmt.table)
    txid = conn.require_transaction().txid
    db.fire_statement_triggers(
        table.name, TriggerEvent.DELETE, TriggerTiming.BEFORE, txid, 0, connection=conn
    )
    path = _access_path(db, stmt, table, _resolve_subqueries(db, conn, stmt.where))
    count = db.delete_rows(
        stmt.table, [rowid for rowid, _row in path.rows()], conn=conn
    )
    db.fire_statement_triggers(
        table.name, TriggerEvent.DELETE, TriggerTiming.AFTER, txid, count, connection=conn
    )
    return Result(rowcount=count)


# --------------------------------------------------------------------------
# What a template derives once
# --------------------------------------------------------------------------


def _access_path(
    db: "Database", stmt: Select | Update | Delete, table: Any, where: Expression | None
) -> AccessPath:
    """This execution's access path: the template's plan, made once per
    schema version, resolved for the installed ``?`` values and
    filtering by ``where`` (the template's WHERE, or its copy with
    subquery results)."""
    memo = stmt.__dict__.get("_access_memo")
    if memo is None or memo[0] != db.schema_version:
        memo = (db.schema_version, plan_access(table, stmt.where))
        stmt._access_memo = memo
    return memo[1].resolve(where)


def _reads_qualified(expression: Expression | None) -> bool:
    if expression is None:
        return False
    if isinstance(expression, ColumnRef) and expression.qualifier:
        return True
    return any(_reads_qualified(child) for child in expression.children())


class _SelectShape:
    """A SELECT template's execution-invariant parts.

    ``columns`` are the output columns when no ``*`` makes them depend
    on the rows.  ``alias`` is the name single-table rows are qualified
    under, or None when no expression of the statement reads a qualified
    column: only a qualified :class:`ColumnRef` ever reads a qualified
    key, and ``*`` skips them, so such a statement reads the stored rows
    as they are.
    """

    __slots__ = ("items", "columns", "aggregates", "alias")

    def __init__(self, stmt: Select) -> None:
        self.items = _compile_items(stmt.items)
        self.columns = (
            None
            if any(item.is_star for item in stmt.items)
            else _output_columns(self.items, [])
        )
        self.aggregates = _collect_aggregates(stmt)
        expressions = [item.expression for item in stmt.items if not item.is_star]
        expressions += [stmt.where, stmt.having, *stmt.group_by]
        expressions += [order.expression for order in stmt.order_by]
        qualified = any(_reads_qualified(expression) for expression in expressions)
        self.alias = (stmt.alias or stmt.table) if qualified else None


def _select_shape(stmt: Select) -> _SelectShape:
    shape = stmt.__dict__.get("_shape_memo")
    if shape is None:
        shape = stmt._shape_memo = _SelectShape(stmt)
    return shape


# --------------------------------------------------------------------------
# SELECT
# --------------------------------------------------------------------------


def _execute_select(db: "Database", conn: "Connection", stmt: Select) -> Result:
    shape = _select_shape(stmt)
    items = shape.items
    if stmt.table is None:
        # Table-less SELECT: evaluate expressions against an empty row.
        row = _project(items, {}, {})
        return Result(columns=_output_columns(items, []), rows=[row], rowcount=1)

    db.lock_table_shared(conn, stmt.table)
    for join in stmt.joins:
        db.lock_table_shared(conn, join.table)

    where = _resolve_subqueries(db, conn, stmt.where)
    aggregate_nodes = shape.aggregates
    source_rows: list[dict[str, Any]] = []
    output_pairs: list[tuple[dict[str, Any], dict[str, Any]]] | None = None

    if not stmt.joins:
        table = db.catalog.table(stmt.table)
        if stmt.group_by or aggregate_nodes:
            # Aggregate over one table: try scan→mask→reduce over the
            # columnar projection.  Returns None (ineligible shape, or
            # a kernel raised VectorFallback) -> row path below.
            output_pairs = _try_vectorized(
                table, shape.alias, stmt, where, aggregate_nodes
            )
        if output_pairs is None:
            # Single-table SELECT: the template's access plan, resolved
            # for this execution's values.  The path re-applies the full
            # WHERE as a residual filter, so no second filtering pass is
            # needed.  Rows gain alias-qualified keys only when the
            # statement reads one (see _SelectShape).
            path = _access_path(db, stmt, table, where)
            if shape.alias is None:
                source_rows = [row for _rowid, row in path.rows()]
            else:
                source_rows = [
                    _qualify(row, shape.alias) for _rowid, row in path.rows()
                ]
    else:
        source_rows = list(_scan_from_clause(db, stmt))
        if where is not None:
            where_predicate = compile_predicate(where)
            source_rows = [row for row in source_rows if where_predicate(row)]

    columns = (
        _output_columns(items, source_rows)
        if shape.columns is None
        else list(shape.columns)
    )
    if output_pairs is None:
        if stmt.group_by or aggregate_nodes:
            output_pairs = _execute_grouped(stmt, source_rows, aggregate_nodes)
        elif not (stmt.distinct or stmt.order_by):
            # Nothing below needs the source row beside the projection.
            rows = [_project(items, row, row) for row in source_rows]
            return _limited(stmt, columns, rows)
        else:
            output_pairs = [(_project(items, row, row), row) for row in source_rows]

    if stmt.distinct:
        seen: set[tuple[Any, ...]] = set()
        unique_pairs = []
        for projected, base in output_pairs:
            key = tuple(_sort_key(projected.get(name)) for name in columns)
            if key not in seen:
                seen.add(key)
                unique_pairs.append((projected, base))
        output_pairs = unique_pairs

    if stmt.order_by:
        order_fns = [compile_expression(item.expression) for item in stmt.order_by]

        def order_key(pair: tuple[dict[str, Any], dict[str, Any]]):
            projected, base = pair
            merged = {**base, **projected}
            keys = []
            for index, item in enumerate(stmt.order_by):
                hidden = f"__order_{index}"
                if hidden in base:
                    value = base[hidden]  # precomputed by the grouped path
                else:
                    # merged has the projection on top, so an alias
                    # wins over a base column of the same name.
                    value = order_fns[index](merged)
                key = _sort_key(value)
                keys.append(_Reversed(key) if item.descending else key)
            return keys

        output_pairs.sort(key=order_key)

    return _limited(stmt, columns, [projected for projected, _base in output_pairs])


def _limited(stmt: Select, columns: list[str], rows: list[dict[str, Any]]) -> Result:
    if stmt.offset:
        rows = rows[stmt.offset :]
    if stmt.limit is not None:
        rows = rows[: stmt.limit]
    return Result(columns=columns, rows=rows, rowcount=len(rows))


class _Reversed:
    """Inverts comparison for DESC sort keys."""

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.key == self.key


def _scan_from_clause(db: "Database", stmt: Select) -> Iterator[dict[str, Any]]:
    """Produce joined rows with both bare and qualified column keys."""
    base_table = db.catalog.table(stmt.table)
    base_alias = stmt.alias or stmt.table

    rows: Iterator[dict[str, Any]] = (
        _qualify(row, base_alias) for _rowid, row in base_table.scan_internal()
    )
    for join in stmt.joins:
        rows = _apply_join(db, rows, join)
    return rows


def _qualify(row: dict[str, Any], alias: str) -> dict[str, Any]:
    qualified = dict(row)
    for key, value in row.items():
        qualified[f"{alias}.{key}"] = value
    return qualified


def _apply_join(
    db: "Database", left_rows: Iterator[dict[str, Any]], join: JoinClause
) -> Iterator[dict[str, Any]]:
    right_table = db.catalog.table(join.table)
    right_alias = join.alias or join.table
    right_rows = [
        _qualify(row, right_alias) for _rowid, row in right_table.scan_internal()
    ]
    on_predicate = compile_predicate(join.on)

    # Equi-join fast path: build a hash table on the right side.
    equi = _equi_join_columns(join.on, right_alias)
    if equi is not None:
        left_expr, right_key = equi
        left_key_fn = compile_expression(left_expr)
        buckets: dict[Any, list[dict[str, Any]]] = {}
        for row in right_rows:
            key = row.get(right_key)
            if key is not None:
                buckets.setdefault(equality_key(key), []).append(row)
        for left in left_rows:
            try:
                key = left_key_fn(left)
            except ExpressionError:
                key = None
            matches = buckets.get(equality_key(key), []) if key is not None else []
            emitted = False
            for right in matches:
                merged = _merge_join_row(left, right)
                if on_predicate(merged):
                    emitted = True
                    yield merged
            if not emitted and join.kind == "left":
                yield _merge_join_row(left, _null_row(right_table, right_alias))
        return

    for left in left_rows:
        emitted = False
        for right in right_rows:
            merged = _merge_join_row(left, right)
            if on_predicate(merged):
                emitted = True
                yield merged
        if not emitted and join.kind == "left":
            yield _merge_join_row(left, _null_row(right_table, right_alias))


def _merge_join_row(
    left: dict[str, Any], right: dict[str, Any]
) -> dict[str, Any]:
    # Qualified keys from both sides always survive; on bare-name
    # collision the left (earlier) binding wins, matching documented
    # ambiguity rules.
    merged = dict(right)
    merged.update(left)
    return merged


def _null_row(table: Any, alias: str) -> dict[str, Any]:
    row = {name: None for name in table.schema.column_names}
    return _qualify(row, alias)


def _equi_join_columns(
    on: Expression, right_alias: str
) -> tuple[Expression, str] | None:
    """Detect ``<left expr> = <right.col>`` (either side order) so the
    join can be hashed. Returns (left-side expression, right row key)."""
    if not (isinstance(on, BinaryOp) and on.op == "="):
        return None
    left, right = on.left, on.right
    for first, second in ((left, right), (right, left)):
        if (
            isinstance(second, ColumnRef)
            and second.qualifier == right_alias
        ):
            referenced = (
                first.qualifier
                if isinstance(first, ColumnRef)
                else None
            )
            if referenced != right_alias:
                return first, second.full_name
    return None


# --------------------------------------------------------------------------
# Vectorized aggregate fast path
# --------------------------------------------------------------------------
#
# Eligible shape: single-table SELECT (no joins, no ``*`` items, no
# DISTINCT aggregates) whose WHERE, GROUP BY keys, and aggregate
# arguments all vector-compile against the table's column kinds.  The
# statement then runs scan→mask→reduce over the table's
# :class:`~repro.db.columnar.ColumnStore` — zero per-row Python closure
# calls — and feeds the same :func:`_finalize_groups` tail as the row
# path.  Anything else (including a kernel raising
# :class:`VectorFallback` at runtime) reruns on the row path unchanged.

_VECTORIZED_ENABLED = True

#: Observability counters, also asserted on by the fast-path smoke
#: tests: fast_path counts statements served from the ColumnStore,
#: fallback_compile counts ineligible statements, fallback_runtime
#: counts batches a compiled kernel refused (an unencodable column, a
#: possible int64 overflow, a NaN, a text word that raises).
VECTOR_STATS = {"fast_path": 0, "fallback_compile": 0, "fallback_runtime": 0}


def set_vectorized(enabled: bool) -> bool:
    """Toggle the columnar fast path; returns the previous setting."""
    global _VECTORIZED_ENABLED
    previous = _VECTORIZED_ENABLED
    _VECTORIZED_ENABLED = bool(enabled)
    return previous


def _try_vectorized(
    table: Any,
    base_alias: str | None,
    stmt: Select,
    where: Expression | None,
    aggregate_nodes: list[AggregateCall],
) -> list[tuple[dict[str, Any], dict[str, Any]]] | None:
    if not _VECTORIZED_ENABLED:
        return None
    from repro.db import columnar

    np = columnar.np
    if any(item.is_star for item in stmt.items):
        VECTOR_STATS["fallback_compile"] += 1
        return None
    if any(node.distinct for node in aggregate_nodes):
        VECTOR_STATS["fallback_compile"] += 1
        return None

    # The kernels specialize to constant values (a refusal may hang on
    # one), so ``?`` values are compiled in: the substituted trees are
    # this execution's own, and their parameter-free subtrees are the
    # template's.
    params = current_parameters()
    kinds = columnar.vector_kinds(table.schema)
    try:
        where_fn = (
            compile_vector_predicate(substitute_parameters(where, params), kinds)
            if where is not None
            else None
        )
        key_extractors = [
            compile_vector_extractor(substitute_parameters(expression, params), kinds)
            for expression in stmt.group_by
        ]
        agg_specs: dict[str, tuple[str, str, Any]] = {}
        for node in aggregate_nodes:
            key = node.key
            if key in agg_specs:
                continue
            if node.argument is None:  # COUNT(*)
                agg_specs[key] = (node.name, "star", None)
                continue
            flavor, payload = compile_vector_extractor(
                substitute_parameters(node.argument, params), kinds
            )
            if node.name in ("sum", "avg", "stddev"):
                # The row path raises on textual values here (sum of
                # str); fall back so it raises identically.
                if flavor == "text":
                    raise VectorFallback("text argument to numeric aggregate")
                if flavor == "const" and not (
                    payload is None or isinstance(payload, (bool, int, float))
                ):
                    raise VectorFallback("non-numeric constant aggregate argument")
            agg_specs[key] = (node.name, flavor, payload)
    except VectorFallback:
        VECTOR_STATS["fallback_compile"] += 1
        return None

    try:
        # An inf is Python's answer too, and a NaN is refused: neither
        # is worth a warning.
        with np.errstate(all="ignore"):
            result = _run_vectorized(
                table, base_alias, stmt, where_fn, key_extractors, agg_specs, np
            )
    except VectorFallback:
        VECTOR_STATS["fallback_runtime"] += 1
        return None
    VECTOR_STATS["fast_path"] += 1
    return result


def _run_vectorized(
    table: Any,
    base_alias: str | None,
    stmt: Select,
    where_fn: Any,
    key_extractors: list[tuple[str, Any]],
    agg_specs: dict[str, tuple[str, str, Any]],
    np: Any,
) -> list[tuple[dict[str, Any], dict[str, Any]]]:
    batch = table.column_store().batch()
    if where_fn is not None:
        idx = np.flatnonzero(where_fn(batch))
    else:
        idx = np.arange(batch.n)
    k = int(idx.shape[0])

    # Each distinct extractor closure is evaluated once per statement
    # and restricted to the WHERE-selected rows; shared sub-expressions
    # between GROUP BY keys and aggregate arguments share the work.
    evaluated: dict[int, tuple] = {}

    def run_extractor(flavor: str, payload: Any) -> tuple:
        if flavor == "const":
            return ("const", payload)
        cache_key = id(payload)
        cached = evaluated.get(cache_key)
        if cached is None:
            raw = payload(batch)
            if flavor == "text":
                cached = ("text", raw[0][idx], ~raw[1][idx], raw[2])
            elif flavor == "bool":
                cached = ("bool", raw[0][idx], ~raw[1][idx])
            else:
                cached = ("num", raw[0][idx], ~raw[1][idx])
            evaluated[cache_key] = cached
        return cached

    if k == 0:
        if stmt.group_by:
            return _finalize_groups(stmt, [])  # No rows -> no groups.
        # ... but an ungrouped aggregate answers one row.
        empty = {
            key: 0 if name == "count" else None
            for key, (name, _flavor, _payload) in agg_specs.items()
        }
        return _finalize_groups(stmt, [({}, empty)])

    if stmt.group_by:
        # Dense per-key codes (0 = NULL, like the row path's equality_key
        # tuple keys: equal raw values get equal codes within one column).
        code_arrays = []
        for flavor, payload in key_extractors:
            data = run_extractor(flavor, payload)
            if data[0] == "const":
                code_arrays.append(np.zeros(k, dtype=np.int64))
            elif data[0] == "bool":
                code_arrays.append(np.where(data[2], data[1].astype(np.int64) + 1, 0))
            elif data[0] == "text":
                code_arrays.append(np.where(data[2], data[1] + 1, 0))
            else:
                _, inverse = np.unique(data[1], return_inverse=True)
                code_arrays.append(np.where(data[2], inverse.reshape(-1) + 1, 0))
        if len(code_arrays) == 1:
            _, inv = np.unique(code_arrays[0], return_inverse=True)
        else:
            _, inv = np.unique(
                np.column_stack(code_arrays), axis=0, return_inverse=True
            )
        inv = inv.reshape(-1)
        group_count = int(inv.max()) + 1

        # First-occurrence order (matches the row path's dict insertion
        # order over a heap scan) and segment boundaries for reduceat.
        positions = np.arange(k)
        first = np.full(group_count, k, dtype=np.int64)
        np.minimum.at(first, inv, positions)
        order = np.argsort(first, kind="stable")
        sort_order = np.argsort(inv, kind="stable")
        sorted_inv = inv[sort_order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_inv[1:] != sorted_inv[:-1]))
        )
        sizes = np.bincount(inv, minlength=group_count)
    else:
        # Every selected row is in group 0, already in heap order.
        group_count = 1
        first = order = starts = np.zeros(1, dtype=np.int64)
        sort_order = slice(None)
        sorted_inv = np.zeros(k, dtype=np.int64)
        sizes = np.array([k])

    agg_results: dict[str, list[Any]] = {}
    for key, (name, flavor, payload) in agg_specs.items():
        if flavor == "star":
            agg_results[key] = [int(size) for size in sizes]
        else:
            agg_results[key] = _grouped_aggregate(
                name,
                run_extractor(flavor, payload),
                sort_order,
                sorted_inv,
                starts,
                sizes,
                group_count,
                np,
            )

    group_data = []
    for group_id in order.tolist():
        representative = _vector_representative(
            table, base_alias, batch, idx, int(first[group_id])
        )
        aggregate_values = {
            key: values[group_id] for key, values in agg_results.items()
        }
        group_data.append((representative, aggregate_values))
    return _finalize_groups(stmt, group_data)


def _vector_representative(
    table: Any, base_alias: str | None, batch: Any, idx: Any, position: int
) -> dict[str, Any]:
    rowid = int(batch.rowids[idx[position]])
    raw = table.get(rowid)
    if raw is None:
        raise VectorFallback("row vanished under vectorized execution")
    return raw if base_alias is None else _qualify(raw, base_alias)


def _grouped_aggregate(
    name: str,
    data: tuple,
    sort_order: Any,
    sorted_inv: Any,
    starts: Any,
    sizes: Any,
    group_count: int,
    np: Any,
) -> list[Any]:
    """Per-group aggregate values via segment reductions (reduceat over
    rows sorted by group id, stable so within-group order is heap
    order).  Invalid (NULL) slots carry the reduction's identity."""
    tag = data[0]
    if tag == "const":
        # k copies of one value: the row path's own reduction, which may
        # raise (a float overflowing in stddev); the row path decides.
        value = data[1]
        try:
            return [
                _aggregate(name, [] if value is None else [value] * int(size))
                for size in sizes
            ]
        except Exception:
            raise VectorFallback("aggregate of a constant raises") from None
    is_text = tag == "text"
    is_bool = tag == "bool"
    if is_bool:
        values = data[1].astype(np.int64)
    else:
        values = data[1]
    valid = data[2]
    values_sorted = values[sort_order]
    valid_sorted = valid[sort_order]
    # bool reduceat would OR, not count — cast before reducing.
    counts = np.add.reduceat(valid_sorted.astype(np.int64), starts)
    if name == "count":
        return [int(count) for count in counts]
    if name in ("min", "max"):
        if values_sorted.dtype == np.int64:
            sentinel = (
                np.iinfo(np.int64).max if name == "min" else np.iinfo(np.int64).min
            )
        else:
            sentinel = np.inf if name == "min" else -np.inf
        masked = np.where(valid_sorted, values_sorted, sentinel)
        reducer = np.minimum if name == "min" else np.maximum
        reduced = reducer.reduceat(masked, starts)
        results: list[Any] = []
        for group_id in range(group_count):
            if counts[group_id] == 0:
                results.append(None)
            elif is_text:
                results.append(data[3][int(reduced[group_id])])
            elif is_bool:
                results.append(bool(reduced[group_id]))
            else:
                results.append(reduced[group_id].item())
        return results
    # sum / avg / stddev (numeric flavors only; text screened at compile).
    masked = np.where(valid_sorted, values_sorted, 0)
    # Python sums ints without wrapping and floats in row order: refuse
    # a group whose total could leave int64, or whose running float sum
    # could overflow in some order (each is at most max|v| x its count).
    limit = INT64_MAX if masked.dtype.kind == "i" else sys.float_info.max
    peak = max(masked.max().item(), -masked.min().item())
    if peak * int(counts.max()) > limit:
        raise VectorFallback("total could overflow")
    totals = np.add.reduceat(masked, starts)
    if name == "sum":
        return [
            totals[group_id].item() if counts[group_id] else None
            for group_id in range(group_count)
        ]
    # Python's division, so an int total is rounded once, as in _aggregate.
    averages = [
        totals[group_id].item() / int(counts[group_id]) if counts[group_id] else None
        for group_id in range(group_count)
    ]
    if name == "avg":
        return averages
    # stddev: two-pass about the row path's own mean, as in _aggregate.
    means = np.array([0.0 if mean is None else mean for mean in averages])
    deviations = np.where(
        valid_sorted, values_sorted.astype(np.float64) - means[sorted_inv], 0.0
    )
    squared = deviations * deviations
    if (np.isinf(squared) & np.isfinite(deviations)).any():
        # Python's float ** 2 raises OverflowError where numpy gives inf.
        raise VectorFallback("stddev deviation overflows")
    squares = np.add.reduceat(squared, starts)
    results = []
    for group_id in range(group_count):
        if counts[group_id] < 2:
            results.append(None)
        else:
            results.append(
                math.sqrt(squares[group_id] / (int(counts[group_id]) - 1))
            )
    return results


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------


def _collect_aggregates(stmt: Select) -> list[AggregateCall]:
    found: list[AggregateCall] = []

    def walk(expression: Expression) -> None:
        if isinstance(expression, AggregateCall):
            found.append(expression)
            return
        for child in expression.children():
            walk(child)

    for item in stmt.items:
        if not item.is_star:
            walk(item.expression)
    if stmt.having is not None:
        walk(stmt.having)
    for order in stmt.order_by:
        walk(order.expression)
    return found


def _compute_aggregate(
    node: AggregateCall, rows: list[dict[str, Any]]
) -> Any:
    if node.argument is None:  # COUNT(*)
        return len(rows)
    argument_fn = compile_expression(node.argument)
    values = [value for value in map(argument_fn, rows) if value is not None]
    if node.distinct:
        unique: list[Any] = []
        seen: set[Any] = set()
        for value in values:
            folded = equality_key(value)
            if folded not in seen:
                seen.add(folded)
                unique.append(value)
        values = unique
    return _aggregate(node.name, values)


def _aggregate(name: str, values: list[Any]) -> Any:
    """One aggregate over the non-NULL argument values of one group."""
    if name == "count":
        return len(values)
    if not values:
        return None
    if name == "sum":
        return sum(values)
    if name == "avg":
        return sum(values) / len(values)
    if name == "min":
        return min(values)
    if name == "max":
        return max(values)
    if name == "stddev":
        if len(values) < 2:
            return None
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        return math.sqrt(variance)
    raise ExpressionError(f"unknown aggregate {name!r}")


def _resolve_subqueries(
    db: "Database", conn: "Connection", expression: Expression | None
) -> Expression | None:
    """Materialize uncorrelated subqueries: ``IN (SELECT ...)`` becomes
    a literal IN-list, ``EXISTS (SELECT ...)`` a boolean literal.

    Each subquery runs exactly once per statement.  Correlated
    subqueries (referencing outer columns) fail inside the subquery's
    own evaluation with an unknown-column error — documented as
    unsupported.  A tree without subqueries (known once per node) is
    returned as is, unwalked.
    """
    if expression is None or not _holds_subquery(expression):
        return expression

    def visit(node: Expression) -> Expression | None:
        if isinstance(node, InSelect):
            result = _execute_select(db, conn, node.subquery)
            if len(result.columns) != 1:
                raise SqlSyntaxError(
                    "IN (SELECT ...) requires a single-column subquery"
                )
            column = result.columns[0]
            items: list[Expression] = [
                Literal(row[column]) for row in result.rows
            ]
            operand = _resolve_subqueries(db, conn, node.operand)
            return InList(operand, items, node.negated)
        if isinstance(node, ExistsSelect):
            result = _execute_select(db, conn, node.subquery)
            exists = len(result.rows) > 0
            return Literal(not exists if node.negated else exists)
        return None

    return rewrite(expression, visit)


def _holds_subquery(expression: Expression) -> bool:
    """Whether ``expression`` holds an ``IN (SELECT ...)`` or ``EXISTS``
    (memoized per node)."""
    flag = expression.__dict__.get("_subquery_memo")
    if flag is None:
        flag = isinstance(expression, (InSelect, ExistsSelect)) or any(
            _holds_subquery(child) for child in expression.children()
        )
        expression._subquery_memo = flag
    return flag


def _execute_grouped(
    stmt: Select,
    source_rows: list[dict[str, Any]],
    aggregate_nodes: list[AggregateCall],
) -> list[tuple[dict[str, Any], dict[str, Any]]]:
    groups: dict[tuple[Any, ...], list[dict[str, Any]]] = {}
    if stmt.group_by:
        key_fns = [compile_expression(expression) for expression in stmt.group_by]
        for row in source_rows:
            key = tuple(equality_key(key_fn(row)) for key_fn in key_fns)
            groups.setdefault(key, []).append(row)
    else:
        groups[()] = source_rows  # One global group (possibly empty).

    keyed_nodes = [(node.key, node) for node in aggregate_nodes]
    group_data = []
    for _key, rows in groups.items():
        representative = rows[0] if rows else {}
        aggregate_values = {
            key: _compute_aggregate(node, rows) for key, node in keyed_nodes
        }
        group_data.append((representative, aggregate_values))
    return _finalize_groups(stmt, group_data)


def _finalize_groups(
    stmt: Select,
    group_data: list[tuple[dict[str, Any], dict[str, Any]]],
) -> list[tuple[dict[str, Any], dict[str, Any]]]:
    """Shared tail of grouped execution: HAVING, projection, and ORDER
    BY precomputation over ``(representative, aggregate_values)`` pairs.
    Both the row path and the vectorized fast path feed this, so result
    shaping is identical by construction.

    Every expression here is evaluated against the representative row
    overlaid with the group's aggregate values under their keys, which
    is where a compiled :class:`AggregateCall` looks itself up."""
    having = compile_predicate(stmt.having) if stmt.having is not None else None
    items = _compile_items(stmt.items)
    order_fns = [compile_expression(order.expression) for order in stmt.order_by]
    output: list[tuple[dict[str, Any], dict[str, Any]]] = []
    for representative, aggregate_values in group_data:
        scope = {**representative, **aggregate_values}
        if having is not None and not having(scope):
            continue
        projected = _project(items, representative, scope)
        base = dict(representative)
        # Precompute ORDER BY values here, where the aggregates are in
        # scope; the sort itself only sees (projected, base) pairs.
        scope.update(projected)
        for index, order in enumerate(stmt.order_by):
            try:
                base[f"__order_{index}"] = order_fns[index](scope)
            except ExpressionError:
                base[f"__order_{index}"] = projected.get(
                    _item_name_for_order(order.expression, projected)
                )
        output.append((projected, base))
    return output


def _item_name_for_order(expression: Expression, projected: dict[str, Any]) -> str:
    if isinstance(expression, ColumnRef) and expression.name in projected:
        return expression.name
    return ""


# --------------------------------------------------------------------------
# Projection
# --------------------------------------------------------------------------


def _item_name(item: SelectItem, ordinal: int) -> str:
    if item.alias:
        return item.alias
    expression = item.expression
    if isinstance(expression, ColumnRef):
        return expression.name
    if isinstance(expression, AggregateCall):
        return expression.name
    return f"col{ordinal}"


def _compile_items(
    items: list[SelectItem],
) -> list[tuple[str | None, Any]]:
    """``(output name, closure)`` per select item, once per statement;
    ``(None, None)`` stands for ``*``."""
    compiled: list[tuple[str | None, Any]] = []
    position = 0
    for item in items:
        if item.is_star:
            compiled.append((None, None))
            continue
        position += 1
        compiled.append(
            (_item_name(item, position), compile_expression(item.expression))
        )
    return compiled


def _project(
    items: list[tuple[str | None, Any]],
    row: dict[str, Any],
    scope: dict[str, Any],
) -> dict[str, Any]:
    """One output row: ``*`` expands ``row``, every other item is
    evaluated against ``scope`` (``row`` itself, or ``row`` overlaid
    with aggregate values on the grouped path)."""
    projected: dict[str, Any] = {}
    for name, item_fn in items:
        if item_fn is None:
            for key, value in row.items():
                if "." in key:
                    continue  # Qualified duplicates stay internal.
                if key not in projected:
                    projected[key] = value
            continue
        projected[name] = item_fn(scope)
    return projected


def _output_columns(
    items: list[tuple[str | None, Any]], source_rows: list[dict[str, Any]]
) -> list[str]:
    columns: list[str] = []
    for name, _item_fn in items:
        if name is None:  # ``*``
            if source_rows:
                for key in source_rows[0]:
                    if "." not in key and key not in columns:
                        columns.append(key)
        elif name not in columns:
            columns.append(name)
    return columns
