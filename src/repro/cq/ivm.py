"""Incremental view maintenance: delta-processed materialized views.

The recompute-per-event analytics path costs O(window) per arrival.
DBToaster's observation (Ahmad et al., PVLDB 2012) is that a
materialized aggregate can instead absorb each change as a *delta* —
and batching those deltas (Nikolic et al., SIGMOD 2016) turns N source
events into ONE view update, amortizing per-update overhead the same
way the queue layer's ``enqueue_batch`` amortizes commit cost.

:class:`MaterializedView` is that layer for this platform:

* **Table-backed**: ``bind_table`` registers against a database's
  committed journal (the same cursor journal-based event capture uses),
  so every commit folds its DML — insert/delete/update row images —
  into the view as one delta batch.  The view is synchronized with
  transaction boundaries for free: aborted work never reaches it.
* **Stream-backed**: ``bind_stream`` buffers a push stream and folds
  every ``batch_size`` events in one update; ``apply_batch`` is the
  direct entry point the batch capture path can call.

Per-row work — predicate test, group-key extraction, one value per
aggregate — is lowered to a single closure by
:func:`repro.db.expr.compile_delta_update`, exactly how the rule engine
compiles predicates.  Aggregates whose :attr:`incremental` flag is
False (e.g. ``First``), and views built with ``recompute=True`` (the
equivalence-testing escape hatch), retain raw values and refold on
read; everything else applies deltas in O(1)–O(log n) and never
revisits source data.  ``snapshot()`` returns the group results plus
freshness metadata, and bound ``MetricsRegistry`` instruments count
deltas applied, batches folded, and refold fallbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.cq.aggregate import AggregateFunction
from repro.cq.stream import Stream
from repro.db.expr import ColumnRef, Expression, Literal, compile_delta_update
from repro.errors import StreamError
from repro.events import KIND_PUNCTUATION, KIND_RETRACTION, Event
from repro.obs.metrics import UNPUBLISHED, Counter, MetricsRegistry

#: Event type emitted on a view's opt-in :meth:`MaterializedView.changes`
#: stream: one retraction of the group's previous result followed by the
#: new result, per group touched by a fold.
VIEW_CHANGE_EVENT_TYPE = "view.change"

# (output name) -> (source, factory).  ``source`` may be a payload/column
# name, ``None`` (count rows), or any Expression over the row.
ViewSpec = dict[str, "tuple[str | Expression | None, Callable[[], AggregateFunction]]"]


class _RowContext(dict):
    """Row view where absent columns read as SQL NULL.

    Events and journal rows routinely lack fields a view extracts; in
    SQL terms those are NULL and the aggregate simply skips them — the
    same convention as ``WindowPane.values`` and rule evaluation.
    """

    def __contains__(self, key: object) -> bool:  # noqa: D105
        return True

    def __missing__(self, key: str) -> None:
        return None


@dataclass(frozen=True)
class ViewSnapshot:
    """Point-in-time view contents plus freshness metadata."""

    name: str
    groups: dict[Any, dict[str, Any]]
    #: Journal position the view has folded up to (table-backed only).
    last_lsn: int | None
    #: Event time of the newest delta folded in (stream-backed only).
    last_timestamp: float | None
    deltas_applied: int
    batches_folded: int
    refolds: int
    #: Bumped once per fold — equal versions mean identical contents.
    version: int
    #: Deltas applied with sign −1 (retraction events folded).
    retractions_applied: int = 0


class MaterializedView:
    """A delta-maintained aggregate view over a table or a stream."""

    def __init__(
        self,
        name: str,
        spec: ViewSpec,
        *,
        key_field: str | None = None,
        predicate: Expression | None = None,
        recompute: bool = False,
        metrics: MetricsRegistry = UNPUBLISHED,
    ) -> None:
        if not spec:
            raise StreamError(f"view {name!r} needs at least one aggregate")
        self.name = name
        self.key_field = key_field
        self.predicate = predicate
        self._factories: dict[str, Callable[[], AggregateFunction]] = {}
        extractors: dict[str, Expression] = {}
        incremental = True
        for output, (source, factory) in spec.items():
            self._factories[output] = factory
            if source is None:
                extractors[output] = Literal(1)
            elif isinstance(source, Expression):
                extractors[output] = source
            else:
                extractors[output] = ColumnRef(source)
            if not factory().incremental:
                incremental = False
        # recompute=True retains raw values and refolds on every read —
        # the full-recompute baseline the equivalence suite compares
        # delta state against.  Non-incremental aggregates force the
        # same retained mode (they cannot retract).
        self.recompute = bool(recompute)
        self._delta_capable = incremental and not self.recompute
        self._delta_fn = compile_delta_update(
            extractors,
            predicate,
            ColumnRef(key_field) if key_field else None,
        )
        # Delta mode: group key -> {output: aggregate instance}.
        self._groups: dict[Any, dict[str, AggregateFunction]] = {}
        self._group_rows: dict[Any, int] = {}
        # Retained mode: group key -> list of extracted value dicts.
        self._retained: dict[Any, list[dict[str, Any]]] = {}
        self._changes: Stream | None = None
        self._version = 0
        self._last_lsn: int | None = None
        self._last_timestamp: float | None = None
        self._reader: Any = None
        self._table: str | None = None
        self._stream_buffer: list[Event] = []
        self._batch_size = 1
        self._m_deltas = Counter()
        self._m_batches = Counter()
        self._m_refolds = Counter()
        self._m_retractions = Counter()
        self.bind_metrics(metrics)

    def bind_metrics(self, metrics: MetricsRegistry) -> "MaterializedView":
        adopt, view = metrics.adopt, self.name
        self._m_deltas = adopt(self._m_deltas, "view.deltas_applied", view=view)
        self._m_batches = adopt(self._m_batches, "view.batches_folded", view=view)
        self._m_refolds = adopt(self._m_refolds, "view.refolds", view=view)
        self._m_retractions = adopt(
            self._m_retractions, "view.retractions_applied", view=view
        )
        return self

    # -- input bindings ------------------------------------------------------

    def bind_table(
        self,
        db: Any,
        table_name: str,
        *,
        start_lsn: int = 0,
        snapshot: Iterable[Mapping[str, Any]] | None = None,
    ) -> "MaterializedView":
        """Maintain this view over a table's committed DML.

        Backfills by replaying the committed journal from ``start_lsn``
        (default 0: the whole history), then folds each later commit's
        records as one delta batch.  A checkpointed database whose
        journal prefix was truncated cannot replay from 0 — pass the
        table's checkpoint state as ``snapshot`` (row mappings, folded
        as inserts) together with the ``start_lsn`` the snapshot is
        current to, and replay resumes from there.

        Raises:
            StreamError: the journal no longer reaches back to
                ``start_lsn`` (records after it were truncated away),
                which would silently produce a view missing history.
        """
        if self._reader is not None:
            raise StreamError(f"view {self.name!r} is already table-bound")
        if start_lsn < 0:
            raise StreamError("start_lsn must be >= 0")
        reader = db.journal_reader(start_lsn)  # refuses a start it cannot reach
        self._table = table_name.lower()
        if snapshot is not None:
            applied = self._apply_insert_batch(snapshot)
            if applied:
                self._m_deltas.inc(applied)
                self._m_batches.inc()
                self._version += 1
        self._reader = reader
        backfill = self._reader.poll()
        if backfill:
            self._fold_records(backfill)
        self._last_lsn = self._reader.position
        db.add_commit_listener(self._on_commit)
        return self

    def _on_commit(self, _transaction: Any) -> None:
        records = self._reader.poll()
        if records:
            self._fold_records(records)
        self._last_lsn = self._reader.position

    def _fold_records(self, records: Iterable[Any]) -> None:
        applied = 0
        # Runs of consecutive inserts (the common shape: bulk loads,
        # append-mostly tables) fold as one batch; retractions flush
        # the run first so per-group arrival order is preserved.
        inserts: list[Any] = []

        def flush_inserts() -> None:
            if inserts:
                self._apply_insert_batch(inserts)
                inserts.clear()

        for record in records:
            if record.table != self._table:
                continue
            if record.op == "insert":
                inserts.append(record.after)
            elif record.op == "delete":
                flush_inserts()
                self._apply(record.before, -1)
            elif record.op == "update":
                flush_inserts()
                self._apply(record.before, -1)
                self._apply(record.after, +1)
            else:
                continue
            applied += 1
        flush_inserts()
        if applied:
            self._m_deltas.inc(applied)
            self._m_batches.inc()
            self._version += 1

    def bind_stream(
        self, stream: Stream, *, batch_size: int = 64
    ) -> "MaterializedView":
        """Maintain this view over a push stream, folding every
        ``batch_size`` events as one delta batch (call :meth:`flush`
        at end of stream / epoch)."""
        if batch_size <= 0:
            raise StreamError("batch_size must be positive")
        self._batch_size = batch_size
        stream.subscribe(self._on_event)
        return self

    def _on_event(self, event: Event) -> None:
        if event.kind == KIND_PUNCTUATION:
            # A watermark is an epoch boundary: everything buffered is
            # complete below it, so fold now rather than waiting for
            # the batch to fill.
            self.flush()
            return
        self._stream_buffer.append(event)
        if len(self._stream_buffer) >= self._batch_size:
            self.flush()

    def flush(self) -> None:
        """Fold any buffered stream events now."""
        if self._stream_buffer:
            batch, self._stream_buffer = self._stream_buffer, []
            self.apply_batch(batch)

    def changes(self) -> Stream:
        """Opt-in change stream (the view's own speculative output).

        After each stream-batch fold, every touched group emits a
        retraction (``kind="retraction"``) carrying its previous result
        followed by its new result — only the new result at group
        birth, only the retraction at group death.  Downstream views
        and operators consume it with the same retraction contract the
        window layer uses.  Costs one extra delta-fn evaluation per
        row, so nothing is paid until this is called.
        """
        if self._changes is None:
            self._changes = Stream(f"view({self.name}).changes")
        return self._changes

    def apply_batch(self, events: Iterable[Event]) -> int:
        """Fold a batch of events as ONE view update; returns the
        number of deltas applied (rows passing the view predicate).

        Kind-aware: data events fold with sign +1 (consecutive runs as
        one batch), retraction events with sign −1 via the incremental
        ``remove()`` contract; punctuation carries no rows and is
        skipped.  Order within the batch is preserved, so a result and
        its later retraction cancel exactly.
        """
        events = list(events)
        old_results = self._snapshot_touched(events)
        applied = 0
        inserts: list[_RowContext] = []

        def flush_inserts() -> None:
            nonlocal applied
            if inserts:
                applied += self._apply_insert_batch(inserts)
                inserts.clear()

        for event in events:
            if event.kind == KIND_PUNCTUATION:
                continue
            row = _RowContext(event.payload)
            row.setdefault("event_type", event.event_type)
            row.setdefault("timestamp", event.timestamp)
            if event.kind == KIND_RETRACTION:
                flush_inserts()
                if self._apply(row, -1):
                    applied += 1
                    self._m_retractions.inc()
            else:
                inserts.append(row)
            if (
                self._last_timestamp is None
                or event.timestamp > self._last_timestamp
            ):
                self._last_timestamp = event.timestamp
        flush_inserts()
        if applied:
            self._m_deltas.inc(applied)
        self._m_batches.inc()
        self._version += 1
        if old_results is not None:
            self._emit_changes(old_results)
        return applied

    def _snapshot_touched(
        self, events: list[Event]
    ) -> dict[Any, dict[str, Any] | None] | None:
        """Pre-fold results of every group this batch will touch (only
        when the change stream is active)."""
        if self._changes is None:
            return None
        old_results: dict[Any, dict[str, Any] | None] = {}
        for event in events:
            if event.kind == KIND_PUNCTUATION:
                continue
            row = _RowContext(event.payload)
            row.setdefault("event_type", event.event_type)
            row.setdefault("timestamp", event.timestamp)
            delta = self._delta_fn(row)
            if delta is None:
                continue
            key = delta[0]
            if key not in old_results:
                old_results[key] = self.group(key)
        return old_results

    def _emit_changes(
        self, old_results: dict[Any, dict[str, Any] | None]
    ) -> None:
        changes = self._changes
        timestamp = self._last_timestamp or 0.0
        for key, old in old_results.items():
            new = self.group(key)
            if old == new:
                continue  # the batch's deltas cancelled out
            if old is not None:
                changes.push(
                    Event(
                        event_type=VIEW_CHANGE_EVENT_TYPE,
                        timestamp=timestamp,
                        payload={"view": self.name, "key": key, **old},
                        source=self.name,
                        kind=KIND_RETRACTION,
                    )
                )
            if new is not None:
                changes.push(
                    Event(
                        event_type=VIEW_CHANGE_EVENT_TYPE,
                        timestamp=timestamp,
                        payload={"view": self.name, "key": key, **new},
                        source=self.name,
                    )
                )

    # -- delta application ---------------------------------------------------

    def _apply_insert_batch(
        self, rows: Iterable[Mapping[str, Any] | None]
    ) -> int:
        """Fold many +1 rows as one batch: rows group by view key and
        each aggregate absorbs its per-group values via ``add_batch``
        (one call per aggregate per group instead of one per row).
        Per-group arrival order is preserved, so order-sensitive float
        states stay identical to per-row application.  Returns the
        number of rows that passed the view predicate; counters are the
        caller's responsibility (entry points differ in what they
        count)."""
        by_key: dict[Any, list[dict[str, Any]]] = {}
        applied = 0
        for row in rows:
            if row is None:
                continue
            if not isinstance(row, _RowContext):
                row = _RowContext(row)
            delta = self._delta_fn(row)
            if delta is None:
                continue
            key, values = delta
            by_key.setdefault(key, []).append(values)
            applied += 1
        if not applied:
            return 0
        if not self._delta_capable:
            for key, values_list in by_key.items():
                self._retained.setdefault(key, []).extend(values_list)
            return applied
        for key, values_list in by_key.items():
            group = self._groups.get(key)
            if group is None:
                group = {
                    output: factory()
                    for output, factory in self._factories.items()
                }
                self._groups[key] = group
                self._group_rows[key] = 0
            for output, fn in group.items():
                batch = [
                    values[output]
                    for values in values_list
                    if values[output] is not None
                ]
                if batch:
                    fn.add_batch(batch)
            self._group_rows[key] += len(values_list)
        return applied

    def _apply(self, row: Mapping[str, Any] | None, sign: int) -> bool:
        if row is None:
            return False
        if not isinstance(row, _RowContext):
            row = _RowContext(row)
        delta = self._delta_fn(row)
        if delta is None:
            return False
        key, values = delta
        if not self._delta_capable:
            bucket = self._retained.setdefault(key, [])
            if sign > 0:
                bucket.append(values)
            else:
                try:
                    bucket.remove(values)
                except ValueError:
                    raise StreamError(
                        f"view {self.name!r}: retraction of a row never added"
                    ) from None
                if not bucket:
                    del self._retained[key]
            return True
        group = self._groups.get(key)
        if sign > 0:
            if group is None:
                group = {
                    output: factory()
                    for output, factory in self._factories.items()
                }
                self._groups[key] = group
                self._group_rows[key] = 0
            for output, fn in group.items():
                value = values[output]
                if value is not None:
                    fn.add(value)
            self._group_rows[key] += 1
        else:
            if group is None:
                raise StreamError(
                    f"view {self.name!r}: retraction of a row never added"
                )
            for output, fn in group.items():
                value = values[output]
                if value is not None:
                    fn.remove(value)
            self._group_rows[key] -= 1
            if self._group_rows[key] <= 0:
                del self._groups[key]
                del self._group_rows[key]
        return True

    def _refold_group(self, rows: list[dict[str, Any]]) -> dict[str, Any]:
        result: dict[str, Any] = {}
        for output, factory in self._factories.items():
            fn = factory()
            fn.add_batch(
                [values[output] for values in rows if values[output] is not None]
            )
            result[output] = fn.result()
        return result

    # -- reads ---------------------------------------------------------------

    def snapshot(self) -> ViewSnapshot:
        """Current view contents plus freshness metadata.

        Delta-capable views read group results in O(groups x aggs);
        retained-mode views refold each group here (counted in
        ``refolds``).
        """
        if self._delta_capable:
            groups = {
                key: {output: fn.result() for output, fn in group.items()}
                for key, group in self._groups.items()
            }
        else:
            groups = {
                key: self._refold_group(rows)
                for key, rows in self._retained.items()
            }
            if groups:
                self._m_refolds.inc(len(groups))
        return ViewSnapshot(
            name=self.name,
            groups=groups,
            last_lsn=self._last_lsn,
            last_timestamp=self._last_timestamp,
            deltas_applied=self._m_deltas.value,
            batches_folded=self._m_batches.value,
            refolds=self._m_refolds.value,
            version=self._version,
            retractions_applied=self._m_retractions.value,
        )

    def group(self, key: Any = None) -> dict[str, Any] | None:
        """One group's current results (None when the group is empty)."""
        if self._delta_capable:
            group = self._groups.get(key)
            if group is None:
                return None
            return {output: fn.result() for output, fn in group.items()}
        rows = self._retained.get(key)
        if rows is None:
            return None
        self._m_refolds.inc()
        return self._refold_group(rows)

    def __len__(self) -> int:
        return len(self._groups if self._delta_capable else self._retained)
