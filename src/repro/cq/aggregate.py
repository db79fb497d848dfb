"""Window aggregation: incremental aggregate functions over panes.

An aggregate function is a small class with an *incremental contract*:
``add(value)`` folds a value in, ``remove(value)`` retracts one, and
``merge(delta)`` absorbs another instance's state — the DBToaster-style
delta-processing interface (Ahmad et al., PVLDB 2012) that lets
materialized views apply event deltas instead of refolding their whole
input.  Algebraic aggregates (Count/Sum/Avg/Stddev) maintain state in
O(1) per delta; Min/Max use a lazy-invalidation heap (O(log n)
amortized); holistic ones that cannot retract (First) advertise
``incremental = False`` so views fall back to refolding.

:class:`WindowAggregate` applies a named set of them to every incoming
:class:`repro.cq.window.WindowPane` and emits one summary event per
pane — the shape of a continuous ``GROUP BY window`` query.  In delta
mode it maintains per-pane aggregate state as events arrive, so closing
a pane is O(#aggregates) instead of O(window).
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import Any, Callable

from repro.cq.stream import Operator, Stream
from repro.cq.window import PANE_EVENT_TYPE, WindowPane
from repro.errors import StreamError
from repro.events import KIND_RETRACTION, Event
from repro.obs.metrics import UNPUBLISHED, Counter, MetricsRegistry


class AggregateFunction:
    """Base: feed values with :meth:`add`, read with :meth:`result`.

    Subclasses that support retraction set ``incremental = True`` and
    implement :meth:`remove`; all standard aggregates implement
    :meth:`merge` so partial (per-batch) states compose.
    """

    #: True when remove() is supported in O(1)–O(log n) amortized; the
    #: IVM layer refolds from source data when an aggregate is not.
    incremental = False

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def add_batch(self, values: Any) -> None:
        """Fold many values in one call.

        The default is a sequential loop, which keeps float-order-
        sensitive states (Sum/Avg/Stddev) bit-for-bit identical to
        per-value ``add`` — the property the IVM delta-vs-refold
        equivalence suite asserts.  Subclasses whose state is
        order-insensitive override this with a cheaper batch absorb.
        """
        add = self.add
        for value in values:
            add(value)

    def remove(self, value: Any) -> None:
        """Retract one previously added value."""
        raise StreamError(
            f"{type(self).__name__} does not support retraction"
        )

    def merge(self, delta: "AggregateFunction") -> None:
        """Fold another instance's state into this one (delta merge)."""
        raise StreamError(f"{type(self).__name__} does not support merge")

    def result(self) -> Any:
        raise NotImplementedError


class Count(AggregateFunction):
    """Number of non-NULL values (or events, when field is None)."""

    incremental = True

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        self.count += 1

    def add_batch(self, values: Any) -> None:
        try:
            self.count += len(values)
        except TypeError:  # non-sized iterable
            self.count += sum(1 for _ in values)

    def remove(self, value: Any) -> None:
        if self.count == 0:
            raise StreamError("Count cannot retract from empty state")
        self.count -= 1

    def merge(self, delta: "Count") -> None:
        self.count += delta.count

    def result(self) -> int:
        return self.count


class Sum(AggregateFunction):
    incremental = True

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    @property
    def any(self) -> bool:
        return self.count > 0

    def add(self, value: Any) -> None:
        self.total += value
        self.count += 1

    def remove(self, value: Any) -> None:
        if self.count == 0:
            raise StreamError("Sum cannot retract from empty state")
        self.count -= 1
        if self.count == 0:
            self.total = 0.0  # cancel float drift at empty
        else:
            self.total -= value

    def merge(self, delta: "Sum") -> None:
        self.total += delta.total
        self.count += delta.count

    def result(self) -> float | None:
        return self.total if self.count else None


class Avg(AggregateFunction):
    incremental = True

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, value: Any) -> None:
        self.total += value
        self.count += 1

    def remove(self, value: Any) -> None:
        if self.count == 0:
            raise StreamError("Avg cannot retract from empty state")
        self.count -= 1
        if self.count == 0:
            self.total = 0.0
        else:
            self.total -= value

    def merge(self, delta: "Avg") -> None:
        self.total += delta.total
        self.count += delta.count

    def result(self) -> float | None:
        return self.total / self.count if self.count else None


class _ExtremumBase(AggregateFunction):
    """Shared lazy-invalidation heap for Min/Max.

    ``remove(x)`` does not search the heap; it records ``x`` as pending
    and the heap top is pruned lazily on the next read.  Every element
    is pushed and popped at most once, so add/remove are O(log n)
    amortized regardless of which element is evicted — including the
    current extremum, the case that defeats naive single-value
    tracking.
    """

    incremental = True

    def __init__(self) -> None:
        self._heap: list[Any] = []
        self._pending: dict[Any, int] = {}
        self._size = 0

    def _wrap(self, value: Any) -> Any:
        return value

    def _unwrap(self, item: Any) -> Any:
        return item

    def add(self, value: Any) -> None:
        heapq.heappush(self._heap, self._wrap(value))
        self._size += 1

    def add_batch(self, values: Any) -> None:
        # O(n + m) heapify beats m pushes at O(m log n); the extremum
        # is order-insensitive, so results are identical.
        values = list(values)
        if not values:
            return
        self._heap.extend(self._wrap(value) for value in values)
        heapq.heapify(self._heap)
        self._size += len(values)

    def remove(self, value: Any) -> None:
        if self._size == 0:
            raise StreamError(
                f"{type(self).__name__} cannot retract from empty state"
            )
        self._size -= 1
        heap = self._heap
        if heap and self._unwrap(heap[0]) == value:
            heapq.heappop(heap)
            self._prune()
        else:
            self._pending[value] = self._pending.get(value, 0) + 1

    def _prune(self) -> None:
        heap, pending = self._heap, self._pending
        while heap and pending:
            top = self._unwrap(heap[0])
            count = pending.get(top)
            if not count:
                return
            if count == 1:
                del pending[top]
            else:
                pending[top] = count - 1
            heapq.heappop(heap)

    def _live_values(self) -> list[Any]:
        pending = dict(self._pending)
        live: list[Any] = []
        for item in self._heap:
            value = self._unwrap(item)
            count = pending.get(value, 0)
            if count:
                pending[value] = count - 1
            else:
                live.append(value)
        return live

    def merge(self, delta: "_ExtremumBase") -> None:
        for value in delta._live_values():
            self.add(value)

    @property
    def value(self) -> Any:
        """Current extremum (kept for pre-IVM API compatibility)."""
        return self.result()

    def result(self) -> Any:
        if self._size == 0:
            return None
        self._prune()
        return self._unwrap(self._heap[0])


class Min(_ExtremumBase):
    pass


class _Rev:
    """Order-inverting wrapper so a min-heap yields the maximum."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Rev") -> bool:
        return other.value < self.value


class Max(_ExtremumBase):
    def _wrap(self, value: Any) -> Any:
        return _Rev(value)

    def _unwrap(self, item: Any) -> Any:
        return item.value


class Stddev(AggregateFunction):
    """Sample standard deviation via Welford's algorithm.

    Retraction reverses the Welford update exactly; merge uses Chan's
    parallel formula, so per-batch partials compose without revisiting
    raw values.
    """

    incremental = True

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, value: Any) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def remove(self, value: Any) -> None:
        if self.count == 0:
            raise StreamError("Stddev cannot retract from empty state")
        if self.count == 1:
            self.count = 0
            self.mean = 0.0
            self.m2 = 0.0
            return
        old_mean = (self.count * self.mean - value) / (self.count - 1)
        self.m2 -= (value - self.mean) * (value - old_mean)
        self.count -= 1
        self.mean = old_mean
        if self.m2 < 0.0:
            self.m2 = 0.0  # clamp float round-off; variance is >= 0

    def merge(self, delta: "Stddev") -> None:
        if delta.count == 0:
            return
        if self.count == 0:
            self.count = delta.count
            self.mean = delta.mean
            self.m2 = delta.m2
            return
        total = self.count + delta.count
        shift = delta.mean - self.mean
        self.m2 += delta.m2 + shift * shift * self.count * delta.count / total
        self.mean += shift * delta.count / total
        self.count = total

    def result(self) -> float | None:
        if self.count < 2:
            return None
        return math.sqrt(self.m2 / (self.count - 1))


class Percentile(AggregateFunction):
    """Exact percentile over a bisect-maintained sorted list.

    ``values`` is kept sorted, so add/remove are O(log n) search +
    O(n) shift — acceptable at window scale — and :meth:`result` no
    longer sorts.
    """

    incremental = True

    def __init__(self, fraction: float) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise StreamError("percentile fraction must be in [0, 1]")
        self.fraction = fraction
        self.values: list[Any] = []

    def add(self, value: Any) -> None:
        bisect.insort(self.values, value)

    def add_batch(self, values: Any) -> None:
        # Extend + one Timsort (which exploits the sorted prefix)
        # instead of m O(n) insort shifts.
        values = list(values)
        if not values:
            return
        self.values.extend(values)
        self.values.sort()

    def remove(self, value: Any) -> None:
        index = bisect.bisect_left(self.values, value)
        if index >= len(self.values) or self.values[index] != value:
            raise StreamError("Percentile cannot retract a value never added")
        self.values.pop(index)

    def merge(self, delta: "Percentile") -> None:
        for value in delta.values:
            self.add(value)

    def result(self) -> Any:
        if not self.values:
            return None
        index = min(
            len(self.values) - 1,
            max(0, math.ceil(self.fraction * len(self.values)) - 1),
        )
        return self.values[index]


class First(AggregateFunction):
    """First value seen.  Not incremental: retracting the current first
    would need the (discarded) arrival order to find its successor."""

    def __init__(self) -> None:
        self.value: Any = None
        self.seen = False

    def add(self, value: Any) -> None:
        if not self.seen:
            self.value = value
            self.seen = True

    def merge(self, delta: "First") -> None:
        if not self.seen and delta.seen:
            self.value = delta.value
            self.seen = True

    def result(self) -> Any:
        return self.value


class Last(AggregateFunction):
    """Last value seen.  Not incremental, same reason as :class:`First`
    (merge assumes the delta's values arrived after this state's)."""

    def __init__(self) -> None:
        self.value: Any = None
        self.seen = False

    def add(self, value: Any) -> None:
        self.value = value
        self.seen = True

    def merge(self, delta: "Last") -> None:
        if delta.seen:
            self.value = delta.value
            self.seen = True

    def result(self) -> Any:
        return self.value


# (output name) -> (field to read, factory for the aggregate function)
AggregateSpec = dict[str, tuple[str | None, Callable[[], AggregateFunction]]]


class WindowAggregate(Operator):
    """Summarize each pane into one event.

    Example::

        agg = WindowAggregate(window, "vwap_1m", {
            "volume": ("qty", Sum),
            "trades": (None, Count),
            "high": ("price", Max),
        })

    emits ``Event("vwap_1m", pane.end, {"volume": ..., "trades": ...,
    "high": ..., "window_start": ..., "window_end": ..., "key": ...})``.

    Out-of-order support: a *speculative* upstream window emits panes
    marked non-final and may later retract and re-emit a revised pane.
    The aggregate mirrors that protocol in its own output — a pane
    retraction makes it emit its previously computable summary with
    ``kind="retraction"`` (retractions arrive *before* the revising
    append, so live delta state / the pane contents still describe the
    result as it was emitted), and a non-final pane is summarized
    without releasing delta state, which keeps accumulating until the
    pane retires.  Output payloads carry no revision bookkeeping, so a
    speculative stream's *net* results (emissions minus retractions)
    are byte-identical to blocking mode's.
    """

    def __init__(
        self,
        upstream: Stream,
        output_type: str,
        spec: AggregateSpec,
        *,
        name: str | None = None,
        recompute: bool = False,
        metrics: MetricsRegistry = UNPUBLISHED,
    ) -> None:
        super().__init__(name or f"aggregate({output_type})", upstream)
        self.output_type = output_type
        self.spec = dict(spec)
        # recompute=True keeps the pre-IVM refold-per-pane path — the
        # equivalence-testing escape hatch (and the only path when the
        # upstream exposes no pane-append hook).
        self.recompute = bool(recompute)
        # Delta state: id(pane) -> {output name -> aggregate instance},
        # maintained per append and popped when the pane closes.
        self._state: dict[int, dict[str, AggregateFunction]] = {}
        # Panes first observed mid-fill (operator attached late): their
        # delta state would be partial, so they refold at close.
        self._partial: set[int] = set()
        self._m_deltas = Counter()
        self._m_refolds = Counter()
        self._m_retractions = Counter()
        self.bind_metrics(metrics)
        if not self.recompute:
            attach = getattr(upstream, "attach_pane_observer", None)
            if attach is not None:
                attach(self._on_append)
        # Speculative panes finalize *silently* (no closing event), so
        # delta state cannot be released at close alone — the window
        # operator's retire hook marks the true end of a pane's life.
        retire = getattr(upstream, "attach_pane_retire_observer", None)
        if retire is not None:
            retire(self._on_retire)

    @property
    def retractions_emitted(self) -> int:
        return self._m_retractions.value

    def bind_metrics(self, metrics: MetricsRegistry) -> "WindowAggregate":
        super().bind_metrics(metrics)
        self._m_deltas = metrics.adopt(
            self._m_deltas, "cq.agg.deltas_applied", stream=self.name
        )
        self._m_refolds = metrics.adopt(
            self._m_refolds, "cq.agg.refolds", stream=self.name
        )
        self._m_retractions = metrics.adopt(
            self._m_retractions, "cq.agg.retractions_emitted", stream=self.name
        )
        return self

    # -- delta path ----------------------------------------------------------

    def _on_append(self, pane: WindowPane, event: Event) -> None:
        pane_id = id(pane)
        if pane_id in self._partial:
            return
        state = self._state.get(pane_id)
        if state is None:
            if len(pane.events) != 1:
                self._partial.add(pane_id)
                return
            state = {
                output_name: factory()
                for output_name, (_field, factory) in self.spec.items()
            }
            self._state[pane_id] = state
        for output_name, (field_name, _factory) in self.spec.items():
            if field_name is None:
                state[output_name].add(1)
            else:
                value = event.get(field_name)
                if value is not None:
                    state[output_name].add(value)
        self._m_deltas.inc()

    def _refold(self, pane: WindowPane) -> dict[str, AggregateFunction]:
        state: dict[str, AggregateFunction] = {}
        for output_name, (field_name, factory) in self.spec.items():
            fn = factory()
            if field_name is None:
                fn.add_batch([1] * len(pane.events))
            else:
                fn.add_batch(list(pane.values(field_name)))
            state[output_name] = fn
        return state

    def _on_retire(self, pane: WindowPane) -> None:
        self._state.pop(id(pane), None)
        self._partial.discard(id(pane))

    def _pane_state(
        self, pane: WindowPane
    ) -> dict[str, AggregateFunction]:
        """The aggregate state for a pane: live delta state when whole,
        else a refold of the pane's current contents."""
        pane_id = id(pane)
        state = self._state.get(pane_id)
        if self.recompute or state is None or pane_id in self._partial:
            state = self._refold(pane)
            if not self.recompute:
                self._m_refolds.inc()
        return state

    def _summarize(
        self,
        pane: WindowPane,
        state: dict[str, AggregateFunction],
        *,
        start: float,
        end: float,
    ) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "window_start": start,
            "window_end": end,
            "key": pane.key,
            "count": len(pane),
        }
        for output_name, fn in state.items():
            payload[output_name] = fn.result()
        return payload

    def process(self, event: Event) -> None:
        if event.event_type != PANE_EVENT_TYPE:
            raise StreamError(
                "WindowAggregate must consume a window operator's panes"
            )
        pane: WindowPane = event["pane"]
        state = self._pane_state(pane)
        # A non-final (speculative) emission keeps its delta state: the
        # pane may still be revised, and the retire hook releases it.
        if event.get("final", True):
            self._on_retire(pane)
        payload = self._summarize(
            pane, state, start=pane.start, end=pane.end
        )
        self.emit(
            Event(
                event_type=self.output_type,
                timestamp=pane.end,
                payload=payload,
                source=self.name,
                causes=tuple(e.event_id for e in pane.events[:32]),
            )
        )

    def on_retraction(self, event: Event) -> None:
        if event.event_type != PANE_EVENT_TYPE or "pane" not in event.payload:
            self.emit(event)  # not ours — forward unprocessed
            return
        # The window operator retracts a pane *before* appending the
        # revising event, so the pane (and any delta state) still holds
        # exactly the contents the retracted summary was computed from.
        # The carried start/end are the bounds as originally emitted —
        # a revised session's bounds may since have moved.
        pane: WindowPane = event["pane"]
        state = self._pane_state(pane)
        payload = self._summarize(
            pane, state, start=event["start"], end=event["end"]
        )
        self._m_retractions.inc()
        self.emit(
            Event(
                event_type=self.output_type,
                timestamp=event["end"],
                payload=payload,
                source=self.name,
                causes=tuple(e.event_id for e in pane.events[:32]),
                kind=KIND_RETRACTION,
            )
        )
