"""Shared statement cache with ``?``-parameter binding.

EXP-3 measured that 60–68 % of the client SQL path is lexing+parsing.
This module removes that cost for repeated statements, the way a
server-side shared cursor cache does: statement text is normalized
(whitespace/keyword case outside string literals), parsed once, and the
resulting AST template is cached in a bounded LRU keyed by
``(normalized text, schema version)``.  DDL bumps the schema version, so
plans built against an old catalog can never be served again.

Templates may contain :class:`~repro.db.expr.Parameter` placeholders.
Binding builds new nodes only along the paths that lead to a ``?``
(:func:`~repro.db.expr.rewrite`); every param-free expression — a
projection list, GROUP BY / ORDER BY keys, a WHERE without ``?`` — is
the template's own node in the bound statement.  So the planner still
sees constants for index selection, and the closures memoized on those
nodes are compiled once per cached template, not once per execution.

Parameters are accepted in DML expression positions only; they are not
supported inside ``IN (SELECT ...)`` / ``EXISTS`` subqueries or DDL.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Sequence

from repro.db.expr import Expression, substitute_parameters
from repro.db.sql import ast
from repro.db.sql.parser import parse_statement
from repro.errors import DatabaseError
from repro.obs.metrics import UNPUBLISHED, MetricsRegistry

DEFAULT_CAPACITY = 256

_TRANSACTION_STATEMENTS = (
    ast.BeginStatement,
    ast.CommitStatement,
    ast.RollbackStatement,
    ast.SavepointStatement,
)


def normalize_sql(text: str) -> str:
    """Normalize statement text for cache keying.

    Collapses runs of whitespace to single spaces, lowercases everything
    *outside* string literals, strips ``--`` comments and a trailing
    ``;`` — so ``SELECT * FROM t`` and ``select  *\\nfrom T ;`` share one
    cache entry while ``'It''s  HERE'`` survives byte-for-byte.
    """
    out: list[str] = []
    i = 0
    n = len(text)
    pending_space = False
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            pending_space = True
            i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == "-":
            while i < n and text[i] != "\n":
                i += 1
            pending_space = True
            continue
        if pending_space and out:
            out.append(" ")
        pending_space = False
        if ch == "'":
            start = i
            i += 1
            while i < n:
                if text[i] == "'":
                    if i + 1 < n and text[i + 1] == "'":
                        i += 2
                        continue
                    i += 1
                    break
                i += 1
            else:
                i = n
            out.append(text[start:i])
            continue
        out.append(ch.lower())
        i += 1
    normalized = "".join(out)
    while normalized.endswith(";"):
        normalized = normalized[:-1].rstrip()
    return normalized


class CachedStatement:
    """A parsed statement template plus its ``?`` arity."""

    __slots__ = ("statement", "parameter_count")

    def __init__(self, statement: ast.Statement) -> None:
        self.statement = statement
        self.parameter_count = getattr(statement, "parameter_count", 0)

    def bind(self, params: Sequence[Any] | None) -> ast.Statement:
        """Return an executable statement with parameters substituted.

        With zero parameters the shared template itself is returned —
        execution never mutates statements, so this is safe and keeps
        the fast path allocation-free.
        """
        values = tuple(params) if params is not None else ()
        if len(values) != self.parameter_count:
            raise DatabaseError(
                f"statement expects {self.parameter_count} parameter(s), "
                f"got {len(values)}"
            )
        if self.parameter_count == 0:
            return self.statement
        return _bind_statement(self.statement, values)


def _bind_expr(
    expression: Expression | None, params: tuple[Any, ...]
) -> Expression | None:
    if expression is None:
        return None
    return substitute_parameters(expression, params)


def _bind_select(select: ast.Select, params: tuple[Any, ...]) -> ast.Select:
    return ast.Select(
        items=[
            ast.SelectItem(
                expression=_bind_expr(item.expression, params),
                alias=item.alias,
                is_star=item.is_star,
            )
            for item in select.items
        ],
        table=select.table,
        alias=select.alias,
        joins=[
            ast.JoinClause(
                table=join.table,
                alias=join.alias,
                on=_bind_expr(join.on, params),
                kind=join.kind,
            )
            for join in select.joins
        ],
        where=_bind_expr(select.where, params),
        group_by=[_bind_expr(expr, params) for expr in select.group_by],
        having=_bind_expr(select.having, params),
        order_by=[
            ast.OrderItem(
                expression=_bind_expr(item.expression, params),
                descending=item.descending,
            )
            for item in select.order_by
        ],
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
    )


def _bind_statement(
    statement: ast.Statement, params: tuple[Any, ...]
) -> ast.Statement:
    if isinstance(statement, ast.Insert):
        bound = ast.Insert(
            table=statement.table,
            columns=statement.columns,
            rows=[
                [_bind_expr(expr, params) for expr in row]
                for row in statement.rows
            ],
            select=(
                _bind_select(statement.select, params)
                if statement.select is not None
                else None
            ),
        )
    elif isinstance(statement, ast.Update):
        bound = ast.Update(
            table=statement.table,
            assignments=[
                (column, _bind_expr(expr, params))
                for column, expr in statement.assignments
            ],
            where=_bind_expr(statement.where, params),
        )
    elif isinstance(statement, ast.Delete):
        bound = ast.Delete(
            table=statement.table, where=_bind_expr(statement.where, params)
        )
    elif isinstance(statement, ast.Select):
        bound = _bind_select(statement, params)
    elif isinstance(statement, ast.Explain):
        bound = ast.Explain(_bind_statement(statement.statement, params))
    else:
        raise DatabaseError(
            "parameters are only supported in "
            "SELECT/INSERT/UPDATE/DELETE statements"
        )
    bound.parameter_count = 0
    return bound


class StatementCache:
    """Bounded LRU of parsed statement templates.

    Keyed by ``(normalized SQL, schema_version)``: the caller passes the
    database's current schema version, so entries parsed before a DDL
    simply stop being reachable (and age out via LRU or are purged
    eagerly by :meth:`drop_stale`).  Thread-safe; parsing happens
    outside the lock.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        metrics: MetricsRegistry = UNPUBLISHED,
    ) -> None:
        if capacity < 1:
            raise ValueError("statement cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[str, int], CachedStatement] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = metrics.view(
            "statement_cache", "hits", "misses", "evictions", "invalidations"
        )
        (self._m_hits, self._m_misses, self._m_evictions,
         self._m_invalidations) = self.stats.counters.values()
        metrics.gauge_fn("statement_cache.hit_rate", lambda: self.hit_rate)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        probes = self._m_hits.value + self._m_misses.value
        return self._m_hits.value / probes if probes else 0.0

    def lookup(
        self,
        sql: str,
        schema_version: int,
        *,
        normalized: str | None = None,
    ) -> CachedStatement:
        """Return the cached template for ``sql``, parsing on miss.

        ``normalized`` lets prepared statements skip re-normalizing the
        same text on every execution.
        """
        key = (normalized if normalized is not None else normalize_sql(sql),
               schema_version)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._m_hits.inc()
                return entry
            self._m_misses.inc()
        statement = parse_statement(sql)
        entry = CachedStatement(statement)
        if not isinstance(statement, _TRANSACTION_STATEMENTS):
            with self._lock:
                self._entries[key] = entry
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self._m_evictions.inc()
        return entry

    def drop_stale(self, current_version: int) -> int:
        """Eagerly purge entries keyed under any other schema version."""
        with self._lock:
            stale = [
                key for key in self._entries if key[1] != current_version
            ]
            for key in stale:
                del self._entries[key]
            self._m_invalidations.inc(len(stale))
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._m_invalidations.inc(len(self._entries))
            self._entries.clear()


class PreparedStatement:
    """A client-side handle for repeated execution of one statement.

    Normalization happens once at prepare time; each execution is a pure
    cache probe plus parameter binding.  The handle survives DDL: a
    schema bump just makes the next execution re-parse under the new
    version.
    """

    __slots__ = ("_database", "sql", "_normalized", "parameter_count")

    def __init__(self, database: Any, sql: str) -> None:
        self._database = database
        self.sql = sql
        self._normalized = normalize_sql(sql)
        entry = database.statement_cache.lookup(
            sql, database.schema_version, normalized=self._normalized
        )
        self.parameter_count = entry.parameter_count

    def execute(self, params: Sequence[Any] | None = None) -> Any:
        return self._database.execute(
            self.sql, params, _normalized=self._normalized
        )

    def query(self, params: Sequence[Any] | None = None) -> list[dict[str, Any]]:
        return self.execute(params).rows
