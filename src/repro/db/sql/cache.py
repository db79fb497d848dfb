"""Shared statement cache: a statement is parsed once, planned once per schema version.

EXP-3 measured that 60–68 % of the client SQL path is lexing+parsing.
This module removes that cost for repeated statements, the way a
server-side shared cursor cache does: statement text is normalized
(whitespace/keyword case outside string literals), parsed once, and the
resulting AST template is cached in a bounded LRU keyed by
``(normalized text, schema version)``.  DDL bumps the schema version, so
plans built against an old catalog can never be served again.

Templates may contain :class:`~repro.db.expr.Parameter` placeholders,
and they are never rebound.  An execution validates its values
(:meth:`CachedStatement.parameters`) and the executor installs them for
this thread for the span of the statement; a ``?`` compiles to a read of
them.  So every part of a template — WHERE, projection, UPDATE
assignments, INSERT values — is compiled once, and the executor plans
it once per schema version, the planner recording an index key or range
bound that is a ``?`` as a slot it reads at execution.  ``?`` binds
anywhere in a SELECT, INSERT, UPDATE, DELETE or EXPLAIN, subqueries
included (they run inside the statement, with its values); DDL and
transaction control take none.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence
from typing import Any

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


_PARAMETERIZABLE = (ast.Select, ast.Insert, ast.Update, ast.Delete, ast.Explain)


class CachedStatement:
    """A parsed statement template plus its ``?`` arity."""

    __slots__ = ("statement", "parameter_count")

    def __init__(self, statement: ast.Statement) -> None:
        self.statement = statement
        self.parameter_count = getattr(statement, "parameter_count", 0)

    def parameters(self, params: Sequence[Any] | None) -> tuple[Any, ...]:
        """Validate one execution's ``?`` values and return them as the
        tuple the executor installs.

        ``params`` is a list, a tuple or another sequence that is not a
        string, bytes or mapping, of exactly the statement's arity (or
        None for none).
        """
        if type(params) is tuple:
            values = params
        elif params is None:
            values = ()
        elif isinstance(params, Sequence) and not isinstance(
            params, (str, bytes, bytearray)
        ):
            values = tuple(params)
        else:
            raise DatabaseError(
                f"statement expects {self.parameter_count} parameter(s) as a "
                f"list or tuple, got {type(params).__name__}"
            )
        if len(values) != self.parameter_count:
            raise DatabaseError(
                f"statement expects {self.parameter_count} parameter(s), "
                f"got {len(values)}"
            )
        if values and not isinstance(self.statement, _PARAMETERIZABLE):
            raise DatabaseError(
                "parameters are only supported in "
                "SELECT/INSERT/UPDATE/DELETE statements"
            )
        return values


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
    cache probe plus the template's plan run with the new values.  The
    handle survives DDL: a schema bump just makes the next execution
    re-parse and re-plan under the new version.
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
