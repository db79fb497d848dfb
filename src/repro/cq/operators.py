"""Stateless and join operators for continuous queries."""

from __future__ import annotations

from typing import Any, Callable

from repro.cq.stream import Operator, Stream
from repro.db.database import Database
from repro.db.expr import Expression, compile_predicate
from repro.db.sql.parser import parse_expression
from repro.errors import StreamError
from repro.events import (
    KIND_PUNCTUATION,
    KIND_RETRACTION,
    Event,
    correlate,
    punctuation,
)
from repro.obs.metrics import Counter, MetricsRegistry
from repro.rules.engine import EventContext


class FilterOperator(Operator):
    """Pass events whose condition holds.

    Conditions may be expression text (SQL grammar over payload
    attributes, absent attributes reading as NULL) or any callable
    ``Event -> bool``.
    """

    def __init__(
        self,
        upstream: Stream,
        condition: str | Expression | Callable[[Event], bool],
        *,
        name: str | None = None,
    ) -> None:
        super().__init__(name or "filter", upstream)
        if isinstance(condition, str):
            condition = parse_expression(condition)
        self.condition = condition
        self.dropped = 0

    def _passes(self, event: Event) -> bool:
        if isinstance(self.condition, Expression):
            context = EventContext(event.payload)
            context.setdefault("event_type", event.event_type)
            return bool(compile_predicate(self.condition)(context))
        return bool(self.condition(event))

    def process(self, event: Event) -> None:
        if self._passes(event):
            self.emit(event)
        else:
            self.dropped += 1

    def on_retraction(self, event: Event) -> None:
        # A retraction carries the payload of the result it compensates,
        # so the predicate gives the same verdict: retractions of events
        # that passed pass; retractions of filtered events have nothing
        # downstream to compensate and are filtered identically.
        self.process(event)


class MapOperator(Operator):
    """Transform each event with a function returning an Event, a
    payload dict (re-wrapped, provenance preserved), or None (drop)."""

    def __init__(
        self,
        upstream: Stream,
        fn: Callable[[Event], Event | dict[str, Any] | None],
        *,
        output_type: str | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name or "map", upstream)
        self.fn = fn
        self.output_type = output_type

    def process(self, event: Event) -> None:
        result = self.fn(event)
        if result is None:
            return
        if isinstance(result, Event):
            self.emit(result)
            return
        self.emit(
            event.derive(
                self.output_type or event.event_type,
                result,
                source=self.name,
            )
        )


class StreamJoin(Stream):
    """Windowed equi-join of two streams.

    Events from ``left`` and ``right`` sharing the same key that occur
    within ``window`` seconds of each other produce a joined event of
    type ``output_type`` whose payload merges both sides (left fields
    prefixed ``left_``, right fields ``right_``, key under ``key``).

    State is pruned as event time advances.  Each side keeps its own
    watermark, and a buffer is pruned against the *other* side's
    watermark: a buffered left event at ``t`` can still join right
    events arriving with timestamps down to ``right_watermark``, so it
    is evictable only once ``t + window < right_watermark`` — pruning
    both buffers against a single shared watermark (the old bug) let a
    fast left stream evict right-side events still within the join
    window of in-flight left events, silently losing matches.

    Events lacking the key field cannot join; they are dropped and
    counted in ``null_key_dropped`` rather than silently discarded.
    Watermark punctuation on either input advances that side's clock
    (pruning state without data) and re-emits downstream carrying
    ``min(left, right)`` — the joined stream's own watermark.
    """

    def __init__(
        self,
        left: Stream,
        right: Stream,
        *,
        key_field: str,
        window: float,
        output_type: str,
        name: str | None = None,
    ) -> None:
        if window <= 0:
            raise StreamError("join window must be positive")
        super().__init__(name or f"join({left.name},{right.name})")
        self.key_field = key_field
        self.window = window
        self.output_type = output_type
        self._left_buffer: dict[Any, list[Event]] = {}
        self._right_buffer: dict[Any, list[Event]] = {}
        self._left_watermark = float("-inf")
        self._right_watermark = float("-inf")
        self._out_watermark = float("-inf")
        self.retractions_dropped = 0
        self._m_null_key = Counter()
        left.subscribe(self._on_left)
        right.subscribe(self._on_right)

    @property
    def null_key_dropped(self) -> int:
        return self._m_null_key.value

    def bind_metrics(self, metrics: MetricsRegistry) -> "StreamJoin":
        super().bind_metrics(metrics)
        self._m_null_key = metrics.adopt(
            self._m_null_key, "cq.null_key_dropped", stream=self.name
        )
        return self

    @property
    def watermark(self) -> float:
        """The joined stream's watermark: min of the two inputs."""
        return min(self._left_watermark, self._right_watermark)

    def buffered(self) -> int:
        return sum(len(events) for events in self._left_buffer.values()) + sum(
            len(events) for events in self._right_buffer.values()
        )

    def _on_left(self, event: Event) -> None:
        self._ingest(event, self._left_buffer, self._right_buffer, left_side=True)

    def _on_right(self, event: Event) -> None:
        self._ingest(event, self._right_buffer, self._left_buffer, left_side=False)

    def _ingest(
        self,
        event: Event,
        own: dict[Any, list[Event]],
        other: dict[Any, list[Event]],
        *,
        left_side: bool,
    ) -> None:
        self._m_in.inc()
        if event.kind == KIND_PUNCTUATION:
            self._advance(
                event.get("watermark", event.timestamp),
                left_side=left_side,
                propagate=True,
            )
            return
        if event.kind == KIND_RETRACTION:
            # A join cannot compensate (the retracted event may have
            # produced arbitrary joined outputs); drop and count.
            self.retractions_dropped += 1
            return
        key = event.get(self.key_field)
        if key is None:
            self._m_null_key.inc()
            return
        self._advance(event.timestamp, left_side=left_side)
        for partner in other.get(key, ()):
            if abs(partner.timestamp - event.timestamp) <= self.window:
                left_event, right_event = (
                    (event, partner) if left_side else (partner, event)
                )
                payload: dict[str, Any] = {"key": key}
                for field_name, value in left_event.payload.items():
                    payload[f"left_{field_name}"] = value
                for field_name, value in right_event.payload.items():
                    payload[f"right_{field_name}"] = value
                self.emit(
                    correlate(
                        [left_event, right_event],
                        self.output_type,
                        payload,
                        source=self.name,
                    )
                )
        own.setdefault(key, []).append(event)

    def _advance(
        self, timestamp: float, *, left_side: bool, propagate: bool = False
    ) -> None:
        if left_side:
            self._left_watermark = max(self._left_watermark, timestamp)
        else:
            self._right_watermark = max(self._right_watermark, timestamp)
        # A left event at t joins right events in [t - window, t + window];
        # future right events have timestamps >= right_watermark, so a
        # buffered left event is dead only once t + window < right_watermark
        # — each buffer prunes against the *other* side's clock.
        self._prune(self._left_buffer, self._right_watermark - self.window)
        self._prune(self._right_buffer, self._left_watermark - self.window)
        if not propagate:
            return
        watermark = self.watermark
        if watermark > self._out_watermark and watermark != float("-inf"):
            self._out_watermark = watermark
            self.emit(punctuation(watermark, source=self.name))

    def _prune(
        self, buffer: dict[Any, list[Event]], horizon: float
    ) -> None:
        empty_keys = []
        for key, events in buffer.items():
            kept = [event for event in events if event.timestamp >= horizon]
            if kept:
                buffer[key] = kept
            else:
                empty_keys.append(key)
        for key in empty_keys:
            del buffer[key]


class StreamTableJoin(Operator):
    """Enrich stream events with a database-table lookup.

    The stream-table join of §2.2.c: reference data lives in the
    database; each event gets the matching row's columns merged in
    under ``prefix``.  Events with no matching row pass through
    unchanged (left join) or are dropped (inner join).
    """

    def __init__(
        self,
        upstream: Stream,
        db: Database,
        table_name: str,
        *,
        event_key: str,
        table_key: str,
        prefix: str = "",
        inner: bool = False,
        name: str | None = None,
    ) -> None:
        super().__init__(name or f"lookup({table_name})", upstream)
        self.db = db
        self.table_name = table_name
        self.event_key = event_key
        self.table_key = table_key
        self.prefix = prefix
        self.inner = inner

    def process(self, event: Event) -> None:
        key = event.get(self.event_key)
        table = self.db.catalog.table(self.table_name)
        rowids = table.lookup_rowids(self.table_key, key) if key is not None else []
        if not rowids:
            if not self.inner:
                self.emit(event)
            return
        row = table.get(rowids[0])
        enrichment = {
            f"{self.prefix}{column}": value for column, value in row.items()
        }
        self.emit(event.with_payload(**enrichment))
