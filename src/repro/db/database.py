"""The database facade: connections, transactions, DML core, recovery.

Every mutation — whether issued as SQL or through the programmatic API —
funnels through :meth:`Database.insert_many` / :meth:`update_rows` /
:meth:`delete_rows` (the single-row methods are those at n = 1), which
enforce the write-ahead discipline:

    lock → BEFORE triggers → constraint checks → apply → undo-log →
    journal → AFTER triggers

The table's triggers for the event are resolved once per call.  Each
row image has one owner:

* the table stores its own copy of an inserted row and replaces, never
  mutates, a stored dict on update;
* the journal owns the row :meth:`TableSchema.coerce_row` built for an
  insert, and for an update or a delete the dict the table let go of
  (``before``, which the undo log reads too) and the merged row (an
  update's ``after``) — no copy is made for it, and no one writes to
  them afterwards;
* a trigger gets copies of its own, made only when the table has a
  trigger for the event, so what it does to them reaches neither the
  table nor the journal (a BEFORE trigger's rewrite of the new row is
  the one sanctioned exception: it is what gets stored).

Isolation is read-committed via table-granularity locks: writers hold a
table-exclusive lock until commit; readers take a short shared lock, so
uncommitted data is never visible.  This is deliberately coarse — the
tutorial's arguments are about architecture (where capture and rule
evaluation happen), not about fine-grained concurrency control.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.clock import Clock, WallClock
from repro.db.catalog import Catalog
from repro.db.expr import (
    Expression,
    expression_from_dict,
    expression_to_dict,
)
from repro.db.index import HashIndex
from repro.db.recovery import analyze, schema_from_dict, schema_to_dict, verify_redo_record
from repro.db.schema import Column, TableSchema
from repro.db.sql import executor as sql_executor
from repro.db.sql.ast import (
    BeginStatement,
    CommitStatement,
    CreateTable as CreateTableStmt,
    CreateTrigger as CreateTriggerStmt,
    RollbackStatement,
    SavepointStatement,
)
from repro.db.sql.cache import (
    DEFAULT_CAPACITY as STATEMENT_CACHE_CAPACITY,
    PreparedStatement,
    StatementCache,
)
from repro.db.sql.executor import Result
from repro.db.storage import HeapTable
from repro.db.transactions import (
    LockManager,
    LockMode,
    Transaction,
    TransactionManager,
)
from repro.db.triggers import (
    Trigger,
    TriggerContext,
    TriggerEvent,
    TriggerTiming,
)
from repro.db.types import type_by_name
from repro.db.wal import (
    DML_OPS,
    OP_ABORT,
    OP_BEGIN,
    OP_CHECKPOINT,
    OP_COMMIT,
    OP_CREATE_INDEX,
    OP_CREATE_TABLE,
    OP_DELETE,
    OP_DROP_TABLE,
    OP_INSERT,
    OP_ROLLBACK_TO,
    OP_UPDATE,
    JournalReader,
    LogRecord,
    WriteAheadLog,
)
from repro.errors import (
    DatabaseError,
    RecoveryError,
    SchemaError,
    TransactionError,
    TriggerError,
)
from repro.obs.metrics import MetricsRegistry, metric_key

from repro.db.wal import OP_CREATE_TRIGGER, OP_DROP_TRIGGER


class Connection:
    """A session against one database.

    Without an explicit transaction each statement autocommits; after
    :meth:`begin` (or SQL ``BEGIN``) statements share the transaction
    until ``COMMIT``/``ROLLBACK``.
    """

    def __init__(self, db: "Database") -> None:
        self.db = db
        self.transaction: Transaction | None = None

    # -- transaction control ------------------------------------------------

    def begin(self) -> Transaction:
        if self.transaction is not None and self.transaction.is_active:
            raise TransactionError("transaction already open on this connection")
        self.transaction = self.db.transactions.begin()
        return self.transaction

    def commit(self) -> None:
        if self.transaction is None:
            raise TransactionError("no open transaction to commit")
        # Detach before finishing: after-commit listeners may re-enter
        # this connection (e.g. query-notification captures re-running
        # their SELECT) and must see it idle.
        transaction = self.transaction
        self.transaction = None
        try:
            self.db.transactions.commit(transaction)
        except BaseException:
            if transaction.is_active:
                self.transaction = transaction
            raise

    def rollback(self) -> None:
        if self.transaction is None:
            raise TransactionError("no open transaction to roll back")
        transaction = self.transaction
        self.transaction = None
        try:
            self.db.transactions.rollback(transaction)
        except BaseException:
            if transaction.is_active:
                self.transaction = transaction
            raise

    def savepoint(self, name: str) -> None:
        if self.transaction is None:
            raise TransactionError("SAVEPOINT requires an open transaction")
        self.transaction.savepoint(name, self.db.wal.last_lsn)

    def rollback_to(self, name: str) -> None:
        if self.transaction is None:
            raise TransactionError("ROLLBACK TO requires an open transaction")
        transaction = self.transaction
        # Journal first: if the append fails, rows and journal still agree.
        self.db._journal_rollback_to(transaction, transaction.savepoint_mark(name))
        transaction.rollback_to_savepoint(name)

    def __enter__(self) -> "Connection":
        self.begin()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self.transaction is not None and self.transaction.is_active:
            if exc_type is None:
                self.commit()
            else:
                self.rollback()

    # -- statement execution ---------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        *,
        _normalized: str | None = None,
    ) -> Result:
        """Execute one SQL statement, optionally binding ``?`` params.

        Statement text is resolved through the database's shared
        statement cache: repeated statements (same normalized text,
        same schema version) skip lexing and parsing entirely.
        """
        entry = self.db.statement_cache.lookup(
            sql, self.db.schema_version, normalized=_normalized
        )
        values = entry.parameters(params)
        statement = entry.statement
        if isinstance(statement, BeginStatement):
            self.begin()
            return Result()
        if isinstance(statement, CommitStatement):
            self.commit()
            return Result()
        if isinstance(statement, RollbackStatement):
            if statement.savepoint is not None:
                self.rollback_to(statement.savepoint)
            else:
                self.rollback()
            return Result()
        if isinstance(statement, SavepointStatement):
            self.savepoint(statement.name)
            return Result()

        implicit = self.transaction is None
        if implicit:
            self.begin()
        try:
            result = sql_executor.execute(self.db, self, statement, values)
        except BaseException:
            if implicit:
                self.rollback()
            raise
        if implicit:
            self.commit()
        return result

    def query(
        self, sql: str, params: Sequence[Any] | None = None
    ) -> list[dict[str, Any]]:
        """Execute and return rows (convenience for SELECT)."""
        return self.execute(sql, params).rows

    def require_transaction(self) -> Transaction:
        if self.transaction is None or not self.transaction.is_active:
            raise TransactionError("operation requires an open transaction")
        return self.transaction


class Database:
    """An embedded database instance: a process-local journal, catalog,
    transaction manager, and DML core.

    Queue tables, brokers, capture sources and materialized views are
    built on this class.  In the sharded deployment (:mod:`repro.shard`)
    each worker process owns one, so a shard is simply "a ``Database``
    behind the same API" and the single-process and sharded deployments
    share every line of queue/pub-sub code.

    Instance attributes the layers above read directly, on hot paths:

    ``clock``
        The :class:`repro.clock.Clock` every timestamp the queue layer
        produces comes from.
    ``catalog``
        The :class:`repro.db.catalog.Catalog` of live tables.
    ``wal``
        The :class:`repro.db.wal.WriteAheadLog`.
    ``obs``
        The :class:`repro.obs.metrics.MetricsRegistry`; components bind
        their instruments from it once, at construction.
    ``faults``
        Optional :class:`repro.faults.FaultInjector` shared by every
        failpoint site reachable through this database (may be ``None``).

    Args:
        path: optional WAL file path; when set, the journal persists
            across processes and ``Database(path=...)`` recovers from it.
        sync_policy: ``"commit"`` (flush journal on every commit,
            default), ``"always"`` (flush on every record), or
            ``"none"`` (flush only on demand — fastest, may lose
            committed work on crash).
        group_commit_size: with ``sync_policy="commit"``, coalesce
            journal flushes so one fsync covers up to this many
            committed transactions (default 1 = flush every commit).
        group_commit_window: optional bound, in clock seconds, on how
            long the oldest unflushed commit may wait for its group.
        clock: time source used for default timestamps.
        faults: optional :class:`repro.faults.FaultInjector`; forwarded
            to the WAL and visible to brokers/delivery managers built
            on this database, so one injector arms the whole pipeline.
        metrics_enabled: build the database's registry disabled: counts
            stay right (``statistics``, every ``.stats``) but no snapshot
            publishes them; error accounting stays live.
    """

    def __init__(
        self,
        path: str | None = None,
        *,
        sync_policy: str = "commit",
        group_commit_size: int = 1,
        group_commit_window: float | None = None,
        lock_timeout: float = 5.0,
        clock: Clock | None = None,
        faults: Any = None,
        statement_cache_size: int = STATEMENT_CACHE_CAPACITY,
        metrics_enabled: bool = True,
    ) -> None:
        self.clock = clock or WallClock()
        self.catalog = Catalog()
        self.obs = MetricsRegistry(clock=self.clock, enabled=metrics_enabled)
        # Shared statement cache (the "cursor cache"): parse results are
        # keyed by (normalized SQL, schema_version); every DDL bumps the
        # version so stale plans can never be served.
        self.schema_version = 0
        self.statement_cache = StatementCache(
            capacity=statement_cache_size, metrics=self.obs
        )
        self._faults = faults
        self.wal = WriteAheadLog(
            path=path,
            sync_policy=sync_policy,
            clock=self.clock,
            group_commit_size=group_commit_size,
            group_commit_window=group_commit_window,
            faults=faults,
            metrics=self.obs,
        )
        self.locks = LockManager(timeout=lock_timeout)
        self.transactions = TransactionManager(self.locks)
        self.transactions.on_commit = self._on_commit
        self.transactions.on_abort = self._on_abort
        self.transactions.after_commit = self._after_commit
        self.transactions.after_abort = self._after_abort
        self._trigger_functions: dict[str, Callable[[TriggerContext], Any]] = {}
        self._commit_listeners: list[Callable[[Transaction], None]] = []
        self._abort_listeners: list[Callable[[Transaction], None]] = []
        self._default_connection: Connection | None = None
        self._mutex = threading.RLock()
        self.statistics = self.obs.view(
            "db", "inserts", "updates", "deletes", "commits", "rollbacks"
        )
        (self._m_inserts, self._m_updates, self._m_deletes, self._m_commits,
         self._m_rollbacks) = self.statistics.counters.values()
        if path and len(self.wal):
            self._rebuild_from_records(self.wal.recovered_records())

    def metrics(self) -> dict[str, Any]:
        """One coherent observability snapshot for this database.

        The registry's snapshot plus, for every table that has a
        columnar projection, its ``columnar.*{table=...}`` maintenance
        counts as gauges (read here, at snapshot time: a patch is told
        from a rebuild at no hot-path cost).
        """
        snapshot = self.obs.snapshot()
        for table in self.catalog.tables():
            store = table.projection
            if store is not None:
                for name, value in store.stats().items():
                    key = metric_key(f"columnar.{name}", {"table": table.name})
                    snapshot["gauges"][key] = value
        return snapshot

    @property
    def faults(self) -> Any:
        """The attached fault injector (or ``None``)."""
        return self._faults

    @faults.setter
    def faults(self, injector: Any) -> None:
        # Keep the WAL's reference in lockstep so arming after
        # construction still reaches every failpoint.
        self._faults = injector
        self.wal.faults = injector

    # -- connections -------------------------------------------------------

    def connect(self) -> Connection:
        return Connection(self)

    def _default(self) -> Connection:
        if self._default_connection is None:
            self._default_connection = self.connect()
        return self._default_connection

    def execute(
        self,
        sql: str,
        params: Sequence[Any] | None = None,
        *,
        _normalized: str | None = None,
    ) -> Result:
        """Execute SQL on the database's default connection."""
        return self._default().execute(sql, params, _normalized=_normalized)

    def query(
        self, sql: str, params: Sequence[Any] | None = None
    ) -> list[dict[str, Any]]:
        return self._default().query(sql, params)

    def prepare(self, sql: str) -> PreparedStatement:
        """Prepare a (possibly ``?``-parameterized) statement for
        repeated execution; parse errors surface here, not at execute."""
        return PreparedStatement(self, sql)

    def _bump_schema_version(self) -> None:
        """Invalidate cached plans after any DDL, and after the undo of
        one (a rolled-back CREATE INDEX must not leave a plan using it).

        Extra bumps are always safe — they cause cache misses, never
        stale hits — so every DDL path calls this unconditionally, even
        when the change could not affect existing plans.
        """
        self.schema_version += 1
        self.statement_cache.drop_stale(self.schema_version)

    # -- commit/abort hooks ---------------------------------------------------

    def _on_commit(self, transaction: Transaction) -> None:
        if transaction.attributes.get("wrote"):
            self.wal.append(transaction.txid, OP_COMMIT)
            if self.wal.sync_policy == "commit":
                self.wal.commit_point()
        self._m_commits.inc()

    def _after_commit(self, transaction: Transaction) -> None:
        # Locks are released here, so listeners may freely run new
        # transactions (queries, enqueues) without self-deadlocking.
        for listener in self._commit_listeners:
            listener(transaction)

    def _on_abort(self, transaction: Transaction) -> None:
        if transaction.attributes.get("wrote"):
            self.wal.append(transaction.txid, OP_ABORT)
        self._m_rollbacks.inc()

    def _after_abort(self, transaction: Transaction) -> None:
        for listener in self._abort_listeners:
            listener(transaction)

    def add_commit_listener(self, listener: Callable[[Transaction], None]) -> None:
        """Register a callback invoked after every successful commit.

        Used by transactional event capture: events buffered during a
        transaction are published only once the transaction commits.
        """
        self._commit_listeners.append(listener)

    def add_abort_listener(self, listener: Callable[[Transaction], None]) -> None:
        """Register a callback invoked after every rollback."""
        self._abort_listeners.append(listener)

    def _mark_write(self, transaction: Transaction) -> None:
        if not transaction.attributes.get("wrote"):
            transaction.attributes["wrote"] = True
            self.wal.append(transaction.txid, OP_BEGIN)

    def _journal_rollback_to(self, transaction: Transaction, savepoint_lsn: int) -> None:
        """Journal a ``ROLLBACK TO``: the transaction's records after
        ``savepoint_lsn`` are void, so neither redo nor a journal reader
        applies them once it commits."""
        if transaction.attributes.get("wrote") and self.wal.last_lsn > savepoint_lsn:
            self.wal.append(
                transaction.txid, OP_ROLLBACK_TO, meta={"lsn": savepoint_lsn}
            )

    # -- locking helpers ---------------------------------------------------------

    def lock_table_shared(self, conn: Connection, table: str) -> None:
        transaction = conn.require_transaction()
        self.locks.acquire(
            transaction.txid, ("table", table.lower()), LockMode.SHARED
        )

    def lock_table_exclusive(self, conn: Connection, table: str) -> None:
        transaction = conn.require_transaction()
        self.locks.acquire(
            transaction.txid, ("table", table.lower()), LockMode.EXCLUSIVE
        )

    # -- transaction plumbing for the programmatic API ----------------------------

    def run_in_transaction(
        self, conn: Connection | None, work: Callable[[Connection], Any]
    ) -> Any:
        """Run ``work`` in the caller's transaction or an implicit one.

        With ``conn`` given, ``work`` joins its open transaction; with
        ``conn=None`` a scratch transaction is opened around it (commit
        on return, rollback on raise)."""
        if conn is not None:
            conn.require_transaction()
            return work(conn)
        scratch = self.connect()
        scratch.begin()
        try:
            result = work(scratch)
        except BaseException:
            scratch.rollback()
            raise
        scratch.commit()
        return result

    def _locked(
        self, conn: Connection, table_name: str
    ) -> tuple[Transaction, HeapTable]:
        """The prelude of every row mutation: the caller's open
        transaction, now holding the table's exclusive lock, and the
        table resolved from the catalog — once per call, however many
        rows the call then touches."""
        self.lock_table_exclusive(conn, table_name)
        return conn.transaction, self.catalog.table(table_name)

    # -- DDL ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: list[Column] | None = None,
        *,
        checks: list[Expression] | None = None,
        schema: TableSchema | None = None,
        conn: Connection | None = None,
    ) -> HeapTable:
        """Create a table from a schema or a column list."""
        if schema is None:
            if columns is None:
                raise SchemaError("create_table needs columns or a schema")
            schema = TableSchema(name, columns, checks)

        def work(connection: Connection) -> HeapTable:
            transaction = connection.require_transaction()
            self.lock_table_exclusive(connection, schema.name)
            table = self.catalog.create_table(schema)
            self._bump_schema_version()
            self._mark_write(transaction)
            self.wal.append(
                transaction.txid,
                OP_CREATE_TABLE,
                table=schema.name,
                meta={"schema": schema_to_dict(schema)},
            )

            def undo() -> None:
                self.catalog.drop_table(schema.name)
                self._bump_schema_version()

            transaction.record_undo(undo)
            return table

        return self.run_in_transaction(conn, work)

    def create_table_from_def(
        self, conn: Connection, statement: CreateTableStmt
    ) -> None:
        """Execute a parsed CREATE TABLE (called by the SQL executor)."""
        if statement.if_not_exists and self.catalog.has_table(statement.table):
            return
        columns = [
            Column(
                name=definition.name,
                col_type=type_by_name(definition.type_name),
                nullable=definition.nullable,
                primary_key=definition.primary_key,
                unique=definition.unique,
                default=definition.default,
            )
            for definition in statement.columns
        ]
        self.create_table(
            statement.table, columns, checks=statement.checks, conn=conn
        )

    def drop_table(
        self,
        name: str,
        *,
        if_exists: bool = False,
        conn: Connection | None = None,
    ) -> None:
        if if_exists and not self.catalog.has_table(name):
            return

        def work(connection: Connection) -> None:
            transaction = connection.require_transaction()
            self.lock_table_exclusive(connection, name)
            table = self.catalog.drop_table(name)
            self._bump_schema_version()
            self._mark_write(transaction)
            self.wal.append(transaction.txid, OP_DROP_TABLE, table=name.lower())

            def undo() -> None:
                restored = self.catalog.create_table(table.schema)
                restored.restore(table.snapshot())
                self._bump_schema_version()

            transaction.record_undo(undo)

        self.run_in_transaction(conn, work)

    def create_index(
        self,
        name: str,
        table_name: str,
        column: str,
        *,
        unique: bool = False,
        kind: str = "ordered",
        conn: Connection | None = None,
    ) -> None:
        def work(connection: Connection) -> None:
            transaction, table = self._locked(connection, table_name)
            table.create_index(name, column, kind=kind, unique=unique)
            self._bump_schema_version()
            self._mark_write(transaction)
            self.wal.append(
                transaction.txid,
                OP_CREATE_INDEX,
                table=table.name,
                meta={
                    "name": name,
                    "column": column.lower(),
                    "unique": unique,
                    "kind": kind,
                },
            )

            def undo() -> None:
                table.drop_index(name)
                self._bump_schema_version()

            transaction.record_undo(undo)

        self.run_in_transaction(conn, work)

    def drop_index(self, name: str, table_name: str) -> None:
        self.catalog.table(table_name).drop_index(name)
        self._bump_schema_version()

    # -- triggers ------------------------------------------------------------

    def register_trigger_function(
        self, name: str, fn: Callable[[TriggerContext], Any]
    ) -> None:
        """Register a Python callback usable from ``CREATE TRIGGER ...
        EXECUTE name`` (and re-bound automatically during recovery)."""
        self._trigger_functions[name.lower()] = fn

    def create_trigger(
        self,
        name: str,
        table: str,
        *,
        timing: TriggerTiming,
        event: TriggerEvent,
        action: Callable[[TriggerContext], Any],
        when: Expression | None = None,
        for_each_row: bool = True,
    ) -> Trigger:
        """Programmatic trigger with an arbitrary Python action.

        Not journaled (a Python callable cannot be persisted); use the
        SQL form with a registered function name when the trigger must
        survive recovery.
        """
        if not self.catalog.has_table(table):
            raise SchemaError(f"table {table!r} does not exist")
        trigger = Trigger(
            name=name.lower(),
            table=table.lower(),
            timing=timing,
            event=event,
            action=action,
            when=when,
            for_each_row=for_each_row,
        )
        return self.catalog.triggers.create(trigger)

    def create_trigger_from_def(self, statement: CreateTriggerStmt) -> None:
        callback = self._trigger_functions.get(statement.callback)
        if callback is None:
            raise TriggerError(
                f"trigger function {statement.callback!r} is not registered"
            )
        self.create_trigger(
            statement.name,
            statement.table,
            timing=TriggerTiming(statement.timing),
            event=TriggerEvent(statement.event),
            action=callback,
            when=statement.when,
            for_each_row=statement.for_each_row,
        )
        # Journal the definition so recovery can re-create it.
        scratch = self.transactions.begin()
        self.wal.append(
            scratch.txid,
            OP_BEGIN,
        )
        self.wal.append(
            scratch.txid,
            OP_CREATE_TRIGGER,
            table=statement.table.lower(),
            meta={
                "name": statement.name.lower(),
                "timing": statement.timing,
                "event": statement.event,
                "callback": statement.callback,
                "when": (
                    expression_to_dict(statement.when)
                    if statement.when is not None
                    else None
                ),
                "for_each_row": statement.for_each_row,
            },
        )
        scratch.attributes["wrote"] = True
        self.transactions.commit(scratch)

    def drop_trigger(self, name: str) -> None:
        self.catalog.triggers.drop(name.lower())

    def _fire_row_triggers(
        self,
        triggers: Sequence[Trigger],
        timing: TriggerTiming,
        txid: int,
        old_row: dict[str, Any] | None,
        new_row: dict[str, Any] | None,
        connection: "Connection",
    ) -> dict[str, Any] | None:
        """Fire one row's ``triggers`` — those of its table, event and
        ``timing``, which the DML call resolved once; callers skip the
        call when there are none."""
        context = TriggerContext(
            table=triggers[0].table,
            event=triggers[0].event,
            timing=timing,
            txid=txid,
            old_row=old_row,
            new_row=new_row,
            connection=connection,
        )
        return self.catalog.triggers.fire(triggers, context)

    def fire_statement_triggers(
        self,
        table: str,
        event: TriggerEvent,
        timing: TriggerTiming,
        txid: int,
        affected_rows: int,
        connection: Connection | None = None,
    ) -> None:
        before, after = self.catalog.triggers.on(table, event)
        triggers = before if timing is TriggerTiming.BEFORE else after
        if not triggers:
            return
        context = TriggerContext(
            table=table,
            event=event,
            timing=timing,
            txid=txid,
            affected_rows=affected_rows,
            statement_level=True,
            connection=connection,
        )
        self.catalog.triggers.fire(triggers, context)

    # -- DML core -----------------------------------------------------------------

    def _insert_locked(
        self,
        connection: Connection,
        transaction: Transaction,
        table: HeapTable,
        values: Mapping[str, Any],
        triggers: tuple[Sequence[Trigger], Sequence[Trigger]],
    ) -> int:
        """Insert one row into an already-locked table; ``triggers`` are
        its (BEFORE, AFTER) INSERT triggers (:meth:`TriggerRegistry.on`)."""
        txid = transaction.txid
        before, after = triggers
        if before:
            incoming = dict(values)
            rewritten = self._fire_row_triggers(
                before, TriggerTiming.BEFORE, txid, None, incoming, connection
            )
            if rewritten is not None:
                incoming = rewritten
        else:
            incoming = values
        row = table.schema.coerce_row(incoming)
        table.schema.enforce_checks(row)
        rowid = table.insert(row)
        # Undo is registered before the journal append so that a failed
        # append (e.g. an unserializable value) rolls back cleanly.
        transaction.record_undo(lambda: table.delete(rowid))
        self._mark_write(transaction)
        # The journal owns ``row``: the table stored its own copy.
        self.wal.append(txid, OP_INSERT, table=table.name, rowid=rowid, after=row)
        self._m_inserts.inc()
        if after:
            self._fire_row_triggers(
                after, TriggerTiming.AFTER, txid, None, dict(row), connection
            )
        return rowid

    def insert_many(
        self,
        table_name: str,
        rows: Iterable[Mapping[str, Any]],
        *,
        conn: Connection | None = None,
    ) -> list[int]:
        """Insert rows in ONE transaction; returns their rowids.

        The only insert body.  The lock is acquired once and — under
        ``sync_policy="commit"`` — the whole batch shares a single
        journal flush, so per-message commit cost is amortized over the
        batch (§2.2.b.i.3).  Triggers and constraint checks run per row.
        """
        batch = list(rows)
        if not batch:
            return []

        def work(connection: Connection) -> list[int]:
            transaction, table = self._locked(connection, table_name)
            triggers = self.catalog.triggers.on(table.name, TriggerEvent.INSERT)
            return [
                self._insert_locked(connection, transaction, table, values, triggers)
                for values in batch
            ]

        return self.run_in_transaction(conn, work)

    def insert_row(
        self,
        table_name: str,
        values: Mapping[str, Any],
        *,
        conn: Connection | None = None,
    ) -> int:
        """Insert one row; returns its rowid (:meth:`insert_many` at n = 1)."""
        return self.insert_many(table_name, (values,), conn=conn)[0]

    def _update_locked(
        self,
        connection: Connection,
        transaction: Transaction,
        table: HeapTable,
        rowid: int,
        updates: Mapping[str, Any],
        triggers: tuple[Sequence[Trigger], Sequence[Trigger]],
    ) -> None:
        """Update one row of an already-locked table; ``triggers`` are
        its (BEFORE, AFTER) UPDATE triggers (:meth:`TriggerRegistry.on`)."""
        txid = transaction.txid
        before, after = triggers
        if before:
            current = dict(table.stored(rowid))
            proposed = dict(current)
            proposed.update(updates)
            rewritten = self._fire_row_triggers(
                before, TriggerTiming.BEFORE, txid, current, proposed, connection
            )
            if rewritten is not None:
                proposed = rewritten
        else:
            # No BEFORE trigger sees the row: the stored dict is only read.
            current = table.stored(rowid)
            proposed = updates
        effective_updates = {
            key: value
            for key, value in proposed.items()
            if key not in current or current[key] != value
            or type(current[key]) is not type(value)
        }
        coerced = table.schema.coerce_update(effective_updates)
        merged = {**current, **coerced}
        table.schema.enforce_checks(merged)
        old_row = table.update(rowid, coerced)
        transaction.record_undo(
            lambda: table.update(rowid, old_row)
        )
        self._mark_write(transaction)
        # The journal owns ``old_row`` (the dict the table let go of)
        # and ``merged``; triggers get copies.
        self.wal.append(
            txid, OP_UPDATE, table=table.name, rowid=rowid, before=old_row, after=merged
        )
        self._m_updates.inc()
        if after:
            old_copy, new_copy = dict(old_row), dict(merged)
            self._fire_row_triggers(
                after, TriggerTiming.AFTER, txid, old_copy, new_copy, connection
            )

    def update_rows(
        self,
        table_name: str,
        updates: Iterable[tuple[int, Mapping[str, Any]]],
        *,
        conn: Connection | None = None,
    ) -> int:
        """Apply ``(rowid, column updates)`` pairs in ONE transaction.

        The only update body: like :meth:`insert_many`, it acquires the
        table lock once and shares a single commit (and journal flush)
        across the whole batch; triggers and checks run per row.
        Returns the number of rows updated.
        """
        batch = list(updates)
        if not batch:
            return 0

        def work(connection: Connection) -> int:
            transaction, table = self._locked(connection, table_name)
            triggers = self.catalog.triggers.on(table.name, TriggerEvent.UPDATE)
            for rowid, columns in batch:
                self._update_locked(
                    connection, transaction, table, rowid, columns, triggers
                )
            return len(batch)

        return self.run_in_transaction(conn, work)

    def update_row(
        self,
        table_name: str,
        rowid: int,
        updates: Mapping[str, Any],
        *,
        conn: Connection | None = None,
    ) -> None:
        """Update one row by rowid (:meth:`update_rows` at n = 1)."""
        self.update_rows(table_name, ((rowid, updates),), conn=conn)

    def _delete_locked(
        self,
        connection: Connection,
        transaction: Transaction,
        table: HeapTable,
        rowid: int,
        triggers: tuple[Sequence[Trigger], Sequence[Trigger]],
    ) -> None:
        """Delete one row of an already-locked table; ``triggers`` are
        its (BEFORE, AFTER) DELETE triggers (:meth:`TriggerRegistry.on`)."""
        txid = transaction.txid
        before, after = triggers
        if before:
            current = dict(table.stored(rowid))
            self._fire_row_triggers(
                before, TriggerTiming.BEFORE, txid, current, None, connection
            )
        old_row = table.delete(rowid)
        transaction.record_undo(
            lambda: table.insert(old_row, rowid=rowid)
        )
        self._mark_write(transaction)
        # The journal owns the dict the table let go of; triggers get a copy.
        self.wal.append(txid, OP_DELETE, table=table.name, rowid=rowid, before=old_row)
        self._m_deletes.inc()
        if after:
            self._fire_row_triggers(
                after, TriggerTiming.AFTER, txid, dict(old_row), None, connection
            )

    def delete_rows(
        self,
        table_name: str,
        rowids: Iterable[int],
        *,
        conn: Connection | None = None,
    ) -> int:
        """Delete rows by rowid in ONE transaction — the only delete
        body, with the same one-lock, one-commit shape as
        :meth:`insert_many`; triggers run per row.  Returns the number
        of rows deleted."""
        batch = list(rowids)
        if not batch:
            return 0

        def work(connection: Connection) -> int:
            transaction, table = self._locked(connection, table_name)
            triggers = self.catalog.triggers.on(table.name, TriggerEvent.DELETE)
            for rowid in batch:
                self._delete_locked(connection, transaction, table, rowid, triggers)
            return len(batch)

        return self.run_in_transaction(conn, work)

    def delete_row(
        self,
        table_name: str,
        rowid: int,
        *,
        conn: Connection | None = None,
    ) -> None:
        """Delete one row by rowid (:meth:`delete_rows` at n = 1)."""
        self.delete_rows(table_name, (rowid,), conn=conn)

    # -- journal access (log mining) ----------------------------------------------

    def journal_reader(self, start_lsn: int | None = None) -> JournalReader:
        """A committed-changes cursor for journal-based event capture.

        By default the reader starts at the current journal tail, seeing
        only changes made after its creation.  A ``start_lsn`` the
        journal no longer reaches back to raises ``StreamError``.
        """
        if start_lsn is None:
            start_lsn = self.wal.last_lsn
        return JournalReader(self.wal, start_lsn)

    # -- checkpoint & recovery -------------------------------------------------------

    def checkpoint(self, *, truncate: bool = False) -> int:
        """Write a consistent checkpoint; returns its LSN.

        Requires quiescence (no active transactions).  With
        ``truncate=True`` the journal prefix before the checkpoint is
        reclaimed — journal readers positioned before it raise
        ``StreamError`` at their next poll, so only truncate once all
        miners have caught up.
        """
        if self.transactions.active_count:
            raise TransactionError(
                "checkpoint requires no active transactions"
            )
        self.wal.flush()
        tables_meta: dict[str, Any] = {}
        for table in self.catalog.tables():
            indexes = []
            for index_name, index in table.indexes.items():
                if index_name.startswith("uq_"):
                    continue  # Recreated automatically from the schema.
                indexes.append(
                    {
                        "name": index_name,
                        "column": index.column,
                        "unique": index.unique,
                        "kind": "hash" if isinstance(index, HashIndex) else "ordered",
                    }
                )
            tables_meta[table.name] = {
                "schema": schema_to_dict(table.schema),
                # scan_internal: checkpoint meta is JSON-encoded at append
                # time (or held only by readers that never write), and
                # stored rows are never mutated in place, so no copies.
                "rows": {str(rowid): row for rowid, row in table.scan_internal()},
                "indexes": indexes,
            }
        scratch = self.transactions.begin()
        record = self.wal.append(
            scratch.txid,
            OP_CHECKPOINT,
            meta={"tables": tables_meta, "next_txid": scratch.txid + 1},
        )
        self.transactions.commit(scratch)
        self.wal.flush()
        if truncate:
            self.wal.truncate_before(record.lsn)
        return record.lsn

    def simulate_crash(self) -> None:
        """Drop all volatile state and recover from the durable journal.

        Models a process crash: unflushed journal records, in-memory
        table state, and un-journaled (programmatic) triggers are lost;
        everything else is rebuilt by redo — for a file-backed database,
        from the file, exactly as a reopen recovers.
        """
        self._rebuild_from_records(self.wal.crash())

    def _rebuild_from_records(self, records: list[LogRecord]) -> None:
        """Rebuild every table from the durable journal ``records``."""
        plan = analyze(records)
        self.catalog = Catalog()
        self.locks = LockManager(timeout=self.locks._timeout)
        self.transactions = TransactionManager(self.locks)
        self.transactions.on_commit = self._on_commit
        self.transactions.on_abort = self._on_abort
        self.transactions.after_commit = self._after_commit
        self.transactions.after_abort = self._after_abort
        self._default_connection = None

        if plan.checkpoint is not None:
            for table_name, table_meta in plan.checkpoint.meta["tables"].items():
                schema = schema_from_dict(table_meta["schema"])
                table = self.catalog.create_table(schema)
                table.restore(
                    {int(rowid): row for rowid, row in table_meta["rows"].items()}
                )
                for index_meta in table_meta.get("indexes", []):
                    if index_meta["name"] not in table.indexes:
                        table.create_index(
                            index_meta["name"],
                            index_meta["column"],
                            kind=index_meta["kind"],
                            unique=index_meta["unique"],
                        )
            next_txid = plan.checkpoint.meta.get("next_txid", 1)
            self.transactions.set_next_txid(max(next_txid, plan.max_txid + 1))
        else:
            self.transactions.set_next_txid(plan.max_txid + 1)

        skipped_triggers: list[str] = []
        for record in plan.redo_records:
            verify_redo_record(record)
            try:
                if record.op in DML_OPS:
                    self._redo_row(record)
                elif (skipped := self._redo_schema(record)) is not None:
                    skipped_triggers.append(skipped)
            except RecoveryError:
                raise
            except DatabaseError as exc:
                # Surface redo failures with the offending record's
                # coordinates instead of a bare storage-layer message.
                raise RecoveryError(
                    f"redo failed: {exc}",
                    lsn=record.lsn,
                    op=record.op,
                    table=record.table,
                    rowid=record.rowid,
                ) from exc
        self.recovery_skipped_triggers = skipped_triggers
        # The whole catalog was just rebuilt; plans cached before the
        # crash/attach must not survive it.
        self._bump_schema_version()

    def _redo_row(self, record: LogRecord) -> None:
        """Apply one committed row change.  A v3 update carries only its
        changed columns and a v3 delete only its rowid, which is all
        redo needs."""
        table = self.catalog.table(record.table)
        if record.op == OP_INSERT:
            table.insert(record.after, rowid=record.rowid)
        elif record.op == OP_UPDATE:
            table.update(record.rowid, record.after)
        else:
            table.delete(record.rowid)

    def _redo_schema(self, record: LogRecord) -> str | None:
        """Apply one DDL redo record; returns a skipped-trigger name when
        a journaled trigger's function is not registered."""
        if record.op == OP_CREATE_TABLE:
            self.catalog.create_table(schema_from_dict(record.meta["schema"]))
        elif record.op == OP_DROP_TABLE:
            if self.catalog.has_table(record.table):
                self.catalog.drop_table(record.table)
        elif record.op == OP_CREATE_INDEX:
            table = self.catalog.table(record.table)
            meta = record.meta
            if meta["name"] not in table.indexes:
                table.create_index(
                    meta["name"],
                    meta["column"],
                    kind=meta["kind"],
                    unique=meta["unique"],
                )
        elif record.op == OP_CREATE_TRIGGER:
            meta = record.meta
            callback = self._trigger_functions.get(meta["callback"])
            if callback is None:
                return meta["name"]
            self.create_trigger(
                meta["name"],
                record.table,
                timing=TriggerTiming(meta["timing"]),
                event=TriggerEvent(meta["event"]),
                action=callback,
                when=(
                    expression_from_dict(meta["when"])
                    if meta.get("when") is not None
                    else None
                ),
                for_each_row=meta["for_each_row"],
            )
        return None


def make_timestamp_default(clock: Clock) -> Callable[[], float]:
    """Column default producing the current time from ``clock``."""

    def default() -> float:
        return clock.now()

    return default
