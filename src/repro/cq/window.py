"""Window operators: tumbling, sliding, count, session.

Windows segment a stream by *event time* (the event's own timestamp,
not arrival time).  A window operator collects events into panes and
emits each completed :class:`WindowPane` to its subscribers wrapped in
a ``window.pane`` event whose payload holds the pane.

Event time advances two ways (the CEDR separation of application time
from system time — Barga et al., CIDR 2007): by *progress* (every data
event's own timestamp, the stream norm) and by *watermark punctuation*
(``Event.kind == "punctuation"``), which promises no further data
below the carried watermark and lets windows close without seeing
data.  ``allowed_lateness`` tolerates bounded disorder below the
watermark; anything later is dropped and counted in ``late_dropped``
(and the ``cq.late_dropped`` metric) — an honest accounting the tests
assert on.

Each operator offers the CEDR consistency spectrum via ``output_mode``:

* ``"blocking"`` (default): a pane is emitted exactly once, only when
  the watermark has passed its end *plus* the lateness allowance — no
  result is ever revised.  Highest latency, no compensation needed.
* ``"speculative"``: a pane is emitted eagerly as soon as the
  watermark passes its end.  If a late-but-within-lateness event then
  revises it, the operator emits a *retraction* (``kind ==
  "retraction"``, carrying the pane identity as previously emitted)
  followed by the corrected pane.  Once the watermark passes
  ``end + allowed_lateness`` the last emission stands and pane state
  is released.  Invariant: ``emissions − retractions`` equals what
  blocking mode would have emitted.

``flush()`` is *terminal*: it advances the watermark to +inf, emitting
every open pane exactly once; events processed after a flush count as
late drops instead of silently re-opening already-emitted panes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cq.stream import Operator, Stream
from repro.errors import WindowError
from repro.events import KIND_RETRACTION, Event
from repro.obs.metrics import NULL_HISTOGRAM, Counter, MetricsRegistry

PANE_EVENT_TYPE = "window.pane"

#: Emit once, only below the lateness horizon (never revised).
OUTPUT_BLOCKING = "blocking"
#: Emit eagerly at the watermark; retract + re-emit on revision.
OUTPUT_SPECULATIVE = "speculative"

_OUTPUT_MODES = (OUTPUT_BLOCKING, OUTPUT_SPECULATIVE)


@dataclass
class WindowPane:
    """One completed window: its bounds, key, and contents."""

    start: float
    end: float
    events: list[Event] = field(default_factory=list)
    key: Any = None

    def __len__(self) -> int:
        return len(self.events)

    def values(self, field_name: str) -> list[Any]:
        """Extract one payload field from every event (None-skipping)."""
        result = []
        for event in self.events:
            value = event.get(field_name)
            if value is not None:
                result.append(value)
        return result


# Observer called as ``observer(pane, event)`` right after ``event`` is
# appended to ``pane`` — the delta-processing hook: a downstream
# consumer (e.g. WindowAggregate in delta mode) folds each event into
# per-pane aggregate state as it arrives instead of refolding the whole
# pane at close.
PaneObserver = Callable[[WindowPane, Event], None]

# Observer called as ``observer(pane)`` when the operator drops its last
# reference to a pane — final emission, silent speculative finalization,
# or a session merge absorbing it.  Downstream per-pane state (delta
# aggregates, remembered speculative results) is released here, which
# matters because speculative panes finalize *silently* once the
# lateness horizon passes their last emission.
PaneRetireObserver = Callable[[WindowPane], None]


class WindowOperator(Operator):
    """Base for window operators: pane bookkeeping, append hooks,
    watermark/lateness accounting, and the retraction machinery."""

    def __init__(
        self,
        name: str,
        upstream: Stream,
        *,
        allowed_lateness: float = 0.0,
        output_mode: str = OUTPUT_BLOCKING,
    ) -> None:
        super().__init__(name, upstream)
        if allowed_lateness < 0:
            raise WindowError("allowed_lateness must be >= 0")
        if output_mode not in _OUTPUT_MODES:
            raise WindowError(
                f"output_mode must be one of {_OUTPUT_MODES}, "
                f"got {output_mode!r}"
            )
        self.allowed_lateness = allowed_lateness
        self.output_mode = output_mode
        self._watermark = float("-inf")
        #: Upstream retractions a window cannot compensate (it would
        #: need to un-append from arbitrary panes); dropped and counted.
        self.retractions_dropped = 0
        self._pane_observers: list[PaneObserver] = []
        self._retire_observers: list[PaneRetireObserver] = []
        self._m_late = Counter()
        self._m_retractions = Counter()
        self._m_lateness = NULL_HISTOGRAM

    # -- observability -------------------------------------------------------

    @property
    def late_dropped(self) -> int:
        return self._m_late.value

    @property
    def retractions_emitted(self) -> int:
        return self._m_retractions.value

    def bind_metrics(self, metrics: MetricsRegistry) -> "WindowOperator":
        super().bind_metrics(metrics)
        self._m_late = metrics.adopt(self._m_late, "cq.late_dropped", stream=self.name)
        self._m_retractions = metrics.adopt(
            self._m_retractions, "cq.retractions_emitted", stream=self.name
        )
        self._m_lateness = metrics.histogram("cq.lateness", stream=self.name)
        return self

    # -- event-time plumbing -------------------------------------------------

    @property
    def watermark(self) -> float:
        """Current event-time watermark (max of progress and punctuation)."""
        return self._watermark

    @property
    def horizon(self) -> float:
        """Finality horizon: results at or below ``watermark −
        allowed_lateness`` can no longer be revised."""
        return self._watermark - self.allowed_lateness

    def _too_late(self, timestamp: float) -> bool:
        """Drop-and-count guard, shared by every window type.

        Also feeds the lateness histogram for *every* event behind the
        watermark (accepted or dropped), so disorder magnitude is
        observable even when nothing is lost.
        """
        if timestamp >= self._watermark:
            return False
        lateness = self._watermark - timestamp
        if not math.isinf(lateness):
            self._m_lateness.observe(lateness)
        if timestamp < self.horizon:
            self._m_late.inc()
            return True
        return False

    def on_punctuation(self, event: Event) -> None:
        """Advance event time from a watermark punctuation, emit every
        pane that advance completes, then forward the punctuation
        (stamped with this operator's finality horizon so downstream
        compensation state can be released)."""
        watermark = event.get("watermark", event.timestamp)
        if watermark > self._watermark:
            self._watermark = watermark
            self._sweep()
        self.emit(event.with_payload(horizon=self.horizon))

    def on_retraction(self, event: Event) -> None:
        self.retractions_dropped += 1

    def flush(self) -> None:
        """Terminal end-of-stream: advance the watermark to +inf.

        Every open pane is emitted exactly once (as final); events
        processed afterwards are late by definition and are dropped and
        counted instead of re-opening already-emitted panes.
        """
        if self._watermark != float("inf"):
            self._watermark = float("inf")
            self._sweep()

    def _advance(self, timestamp: float) -> None:
        self._watermark = max(self._watermark, timestamp)
        self._sweep()

    def _sweep(self) -> None:
        """Emit/finalize panes the current watermark has passed."""
        raise NotImplementedError

    # -- pane plumbing -------------------------------------------------------

    def attach_pane_observer(self, observer: PaneObserver) -> None:
        """Register a per-append callback (the IVM delta feed)."""
        self._pane_observers.append(observer)

    def attach_pane_retire_observer(
        self, observer: PaneRetireObserver
    ) -> None:
        """Register an end-of-pane-lifetime callback."""
        self._retire_observers.append(observer)

    def _append(self, pane: WindowPane, event: Event) -> None:
        pane.events.append(event)
        for observer in self._pane_observers:
            observer(pane, event)

    def _retire(self, pane: WindowPane) -> None:
        for observer in self._retire_observers:
            observer(pane)

    def _emit_pane(
        self, pane: WindowPane, *, final: bool, revision: int = 0
    ) -> None:
        self.emit(
            Event(
                event_type=PANE_EVENT_TYPE,
                timestamp=pane.end,
                payload={
                    "pane": pane,
                    "start": pane.start,
                    "end": pane.end,
                    "key": pane.key,
                    "final": final,
                    "revision": revision,
                    "horizon": self.horizon,
                },
                source=self.name,
            )
        )

    def _emit_retraction(
        self,
        pane: WindowPane,
        *,
        revision: int,
        start: float | None = None,
        end: float | None = None,
    ) -> None:
        """Retract a previously emitted pane.

        ``start``/``end`` override the identity carried in the payload
        for panes whose bounds have since moved (session extension) —
        the retraction must name the pane *as it was emitted*.
        """
        self._m_retractions.inc()
        self.emit(
            Event(
                event_type=PANE_EVENT_TYPE,
                timestamp=pane.end if end is None else end,
                payload={
                    "pane": pane,
                    "start": pane.start if start is None else start,
                    "end": pane.end if end is None else end,
                    "key": pane.key,
                    "revision": revision,
                    "horizon": self.horizon,
                },
                source=self.name,
                kind=KIND_RETRACTION,
            )
        )


class _TimeWindow(WindowOperator):
    """Shared machinery for tumbling/sliding windows: fixed pane bounds
    keyed by ``(key, start)``, watermark-driven close, speculative
    revision of already-emitted panes."""

    size: float

    def __init__(
        self,
        name: str,
        upstream: Stream,
        *,
        key_field: str | None,
        allowed_lateness: float,
        output_mode: str,
    ) -> None:
        super().__init__(
            name,
            upstream,
            allowed_lateness=allowed_lateness,
            output_mode=output_mode,
        )
        self.key_field = key_field
        # Open panes (never emitted): (key, start) -> pane.
        self._panes: dict[tuple[Any, float], WindowPane] = {}
        # Speculatively emitted, still revisable: (key, start) ->
        # [pane, revision].
        self._emitted: dict[tuple[Any, float], list[Any]] = {}

    def _key(self, event: Event) -> Any:
        return event.get(self.key_field) if self.key_field else None

    def _starts(self, timestamp: float) -> list[float]:
        raise NotImplementedError

    def process(self, event: Event) -> None:
        timestamp = event.timestamp
        if self._too_late(timestamp):
            return
        key = self._key(event)
        for start in self._starts(timestamp):
            self._assign(event, key, start)
        self._advance(timestamp)

    def _assign(self, event: Event, key: Any, start: float) -> None:
        ident = (key, start)
        entry = self._emitted.get(ident)
        if entry is not None:
            # Late event revising an already-emitted pane: compensate,
            # fold, re-emit — the speculative output contract.
            pane, revision = entry
            self._emit_retraction(pane, revision=revision)
            self._append(pane, event)
            entry[1] = revision + 1
            self._emit_pane(pane, final=False, revision=revision + 1)
            return
        pane = self._panes.get(ident)
        if pane is None:
            pane = WindowPane(start=start, end=start + self.size, key=key)
            self._panes[ident] = pane
        self._append(pane, event)

    def _sweep(self) -> None:
        watermark, horizon = self._watermark, self.horizon
        if self.output_mode == OUTPUT_BLOCKING:
            ready = [
                ident for ident, pane in self._panes.items()
                if pane.end <= horizon
            ]
            for ident in sorted(ready, key=lambda item: item[1]):
                pane = self._panes.pop(ident)
                self._emit_pane(pane, final=True)
                self._retire(pane)
            return
        ready = [
            ident for ident, pane in self._panes.items()
            if pane.end <= watermark
        ]
        for ident in sorted(ready, key=lambda item: item[1]):
            pane = self._panes.pop(ident)
            if pane.end <= horizon:
                self._emit_pane(pane, final=True)
                self._retire(pane)
            else:
                self._emitted[ident] = [pane, 0]
                self._emit_pane(pane, final=False, revision=0)
        # Speculative panes past the horizon can no longer be revised:
        # their last emission stands; release the state.
        for ident in [
            ident for ident, (pane, _rev) in self._emitted.items()
            if pane.end <= horizon
        ]:
            pane, _revision = self._emitted.pop(ident)
            self._retire(pane)


class TumblingWindow(_TimeWindow):
    """Fixed, non-overlapping windows of ``size`` seconds, aligned to
    multiples of ``size`` — optionally partitioned by ``key_field``."""

    def __init__(
        self,
        upstream: Stream,
        size: float,
        *,
        key_field: str | None = None,
        allowed_lateness: float = 0.0,
        output_mode: str = OUTPUT_BLOCKING,
        name: str | None = None,
    ) -> None:
        if size <= 0:
            raise WindowError("window size must be positive")
        super().__init__(
            name or f"tumbling({size})",
            upstream,
            key_field=key_field,
            allowed_lateness=allowed_lateness,
            output_mode=output_mode,
        )
        self.size = size

    def _starts(self, timestamp: float) -> list[float]:
        return [(timestamp // self.size) * self.size]


class SlidingWindow(_TimeWindow):
    """Overlapping windows: ``size`` seconds every ``slide`` seconds.

    Each event lands in ``ceil(size / slide)`` panes.
    """

    def __init__(
        self,
        upstream: Stream,
        size: float,
        slide: float,
        *,
        key_field: str | None = None,
        allowed_lateness: float = 0.0,
        output_mode: str = OUTPUT_BLOCKING,
        name: str | None = None,
    ) -> None:
        if size <= 0 or slide <= 0:
            raise WindowError("window size and slide must be positive")
        if slide > size:
            raise WindowError(
                "slide larger than size leaves gaps; use a tumbling window"
            )
        super().__init__(
            name or f"sliding({size},{slide})",
            upstream,
            key_field=key_field,
            allowed_lateness=allowed_lateness,
            output_mode=output_mode,
        )
        self.size = size
        self.slide = slide

    def _starts(self, timestamp: float) -> list[float]:
        # Pane starts are the multiples of slide in (ts - size, ts].
        starts = []
        start = ((timestamp - self.size) // self.slide + 1) * self.slide
        while start <= timestamp:
            if timestamp < start + self.size:
                starts.append(start)
            start += self.slide
        return starts


class CountWindow(WindowOperator):
    """Every ``count`` events forms a pane (optionally per key).

    Panes are built eagerly (an open pane per key from its first event)
    so pane observers see each append — the delta path needs the pane to
    exist while it fills, not only at close.  Count windows have no
    event-time semantics: arrival order is the only order, so there is
    no watermark, no lateness, and no speculative mode.
    """

    def __init__(
        self,
        upstream: Stream,
        count: int,
        *,
        key_field: str | None = None,
        name: str | None = None,
    ) -> None:
        if count <= 0:
            raise WindowError("count must be positive")
        super().__init__(name or f"count({count})", upstream)
        self.count = count
        self.key_field = key_field
        self._panes: dict[Any, WindowPane] = {}

    def process(self, event: Event) -> None:
        key = event.get(self.key_field) if self.key_field else None
        pane = self._panes.get(key)
        if pane is None:
            pane = WindowPane(
                start=event.timestamp, end=event.timestamp, key=key
            )
            self._panes[key] = pane
        self._append(pane, event)
        pane.end = event.timestamp
        if len(pane.events) >= self.count:
            del self._panes[key]
            self._emit_pane(pane, final=True)
            self._retire(pane)

    def _sweep(self) -> None:  # no event-time machinery
        return

    def flush(self) -> None:
        for key in list(self._panes):
            pane = self._panes.pop(key)
            if pane.events:
                self._emit_pane(pane, final=True)
            self._retire(pane)


class SessionWindow(WindowOperator):
    """Activity sessions: a pane closes after ``gap`` seconds of
    silence (per key).

    Under disorder, a late event may extend a session backwards, or
    *bridge* two proto-sessions into one — so the operator keeps a list
    of open sessions per key and merges on contact.  The lateness guard
    is identical to tumbling/sliding (this unification is the fix for
    the double-emit bug where a very late event silently re-opened an
    already-emitted session).
    """

    def __init__(
        self,
        upstream: Stream,
        gap: float,
        *,
        key_field: str | None = None,
        allowed_lateness: float = 0.0,
        output_mode: str = OUTPUT_BLOCKING,
        name: str | None = None,
    ) -> None:
        if gap <= 0:
            raise WindowError("session gap must be positive")
        super().__init__(
            name or f"session({gap})",
            upstream,
            allowed_lateness=allowed_lateness,
            output_mode=output_mode,
        )
        self.gap = gap
        self.key_field = key_field
        # Open sessions per key (plural: disorder can create disjoint
        # proto-sessions that a later bridge event merges).
        self._sessions: dict[Any, list[WindowPane]] = {}
        # Speculatively emitted sessions per key: [pane, revision].
        self._emitted: dict[Any, list[list[Any]]] = {}
        # Pane -> next revision number, for sessions revised back open.
        self._revised: dict[int, int] = {}

    def _touches(self, pane: WindowPane, timestamp: float) -> bool:
        return pane.start - self.gap <= timestamp <= pane.end + self.gap

    def process(self, event: Event) -> None:
        timestamp = event.timestamp
        if self._too_late(timestamp):
            return
        key = event.get(self.key_field) if self.key_field else None
        self._assign(event, key)
        self._advance(timestamp)

    def _assign(self, event: Event, key: Any) -> None:
        timestamp = event.timestamp
        open_list = self._sessions.setdefault(key, [])
        emitted_list = self._emitted.get(key, [])
        touching_open = [
            pane for pane in open_list if self._touches(pane, timestamp)
        ]
        touching_emitted = [
            entry for entry in emitted_list
            if self._touches(entry[0], timestamp)
        ]
        if not touching_open and not touching_emitted:
            pane = WindowPane(start=timestamp, end=timestamp, key=key)
            open_list.append(pane)
            self._append(pane, event)
            return
        # Every touched emitted session is being revised: retract it
        # (naming the bounds as emitted) and pull it back into play.
        for entry in touching_emitted:
            pane, revision = entry
            self._emit_retraction(pane, revision=revision)
            emitted_list.remove(entry)
            self._revised[id(pane)] = revision + 1
        panes = touching_open + [entry[0] for entry in touching_emitted]
        if len(panes) == 1:
            target = panes[0]
            if target not in open_list:
                open_list.append(target)
            self._append(target, event)
            target.start = min(target.start, timestamp)
            target.end = max(target.end, timestamp)
            return
        # Bridge: the event connects several proto-sessions into one.
        # The merged pane is a new object the observers never saw fill,
        # so delta consumers refold it at close — honest, and counted.
        for pane in touching_open:
            open_list.remove(pane)
        revision = max(
            (self._revised.pop(id(pane), 0) for pane in panes), default=0
        )
        ordered = sorted(panes, key=lambda pane: pane.start)
        merged = WindowPane(
            start=min(ordered[0].start, timestamp),
            end=max(max(pane.end for pane in panes), timestamp),
            events=[e for pane in ordered for e in pane.events],
            key=key,
        )
        if revision:
            self._revised[id(merged)] = revision
        open_list.append(merged)
        self._append(merged, event)
        for pane in panes:
            self._retire(pane)

    def _sweep(self) -> None:
        watermark, horizon = self._watermark, self.horizon
        gap = self.gap
        blocking = self.output_mode == OUTPUT_BLOCKING
        # Close threshold: blocking waits until no in-lateness event
        # could still extend the session; speculative closes at the
        # plain gap rule and revises later if needed.
        threshold = horizon if blocking else watermark
        for key in list(self._sessions):
            open_list = self._sessions[key]
            ready = [
                pane for pane in open_list if pane.end + gap < threshold
            ]
            for pane in sorted(ready, key=lambda pane: pane.start):
                open_list.remove(pane)
                revision = self._revised.pop(id(pane), 0)
                if blocking or pane.end + gap < horizon:
                    self._emit_pane(pane, final=True, revision=revision)
                    self._retire(pane)
                else:
                    self._emitted.setdefault(key, []).append(
                        [pane, revision]
                    )
                    self._emit_pane(pane, final=False, revision=revision)
            if not open_list:
                del self._sessions[key]
        if blocking:
            return
        # Finalize speculative sessions past the horizon.
        for key in list(self._emitted):
            entries = self._emitted[key]
            keep = []
            for entry in entries:
                if entry[0].end + gap < horizon:
                    self._retire(entry[0])
                else:
                    keep.append(entry)
            entries[:] = keep
            if not entries:
                del self._emitted[key]
