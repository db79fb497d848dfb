"""The metrics registry: counters, gauges, bounded histograms.

The tutorial's operational-characteristics bullets (§2.2, "security,
auditing and tracking") claim a database-backed event platform can
account for what happened to every message.  This module is that
accounting substrate: every hot stage (WAL, statement cache, queues,
rules, propagation, delivery, CQ operators) increments instruments
obtained from a shared :class:`MetricsRegistry`, and
``Database.metrics()`` / ``python -m repro stats`` render the registry
as one snapshot.

**One store.**  A :class:`Counter` is the only place a count lives.  A
component's ``.stats`` mapping (and ``Database.statistics``) is a
:class:`CounterView`, a read-only view over the counters the component
increments; count attributes such as ``Stream.events_in`` are
properties over a counter.  Nothing keeps a second tally beside it.

**Identity.**  A count belongs to its ``(registry, name, labels)``
identity: asking twice returns the same counter, so two live objects
with the same identity (two queue-table handles for one queue, two
streams of one name bound to one registry) read the shared total.

**Disabled means unpublished.**  A counter always counts.  A registry
built with ``enabled=False`` hands each caller a private ``Counter()``
that no snapshot lists, and :data:`UNPUBLISHED` is such a registry,
the default for components built without one, so their ``.stats``
stay right either way.  Gauges and histograms of a disabled registry
are shared no-op instruments.

Design constraints, in order:

1. **Near-zero hot-path cost.**  Components resolve their instruments
   ONCE (at construction) and keep direct references; the per-event
   cost is one attribute load plus an integer add, the same whether or
   not the registry publishes — the overhead budget is enforced by
   ``tests/perf/test_obs_overhead.py``.
2. **Clock discipline.**  The registry never calls ``time.time()``;
   snapshot timestamps come from the :class:`repro.clock.Clock` it was
   built with, and latency observations are computed by callers from
   their component's clock.
3. **Bounded memory.**  Histograms keep a bounded window of recent
   observations (plus exact count/sum/min/max over all time), so a
   long-running process cannot leak through its own telemetry.

Error accounting: :meth:`MetricsRegistry.record_error` is the shared
sink for exception-swallowing boundaries (``except Exception`` sites
that must not kill the pipeline).  Each call increments the
``errors_suppressed`` counter labeled with the swallowing stage and
retains the most recent exception per stage for inspection — a dropped
callback is counted, never invisible.  Error recording works even on a
disabled registry: failure accounting is cold-path and must never be
optimized away.
"""

from __future__ import annotations

import weakref
from collections import deque
from collections.abc import Mapping
from typing import Any, Callable, Iterable, Iterator

DEFAULT_HISTOGRAM_WINDOW = 512


def metric_key(name: str, labels: dict[str, Any]) -> str:
    """Canonical flat key: ``name`` or ``name{k=v,...}`` (labels sorted)."""
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


def split_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`metric_key` (labels parsed best-effort)."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: dict[str, str] = {}
    for pair in rest.rstrip("}").split(","):
        if "=" in pair:
            label, _, value = pair.partition("=")
            labels[label] = value
    return name, labels


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n


class CounterView(Mapping):
    """Read-only ``key -> count`` mapping over a component's counters.

    What ``.stats`` is: each read returns the counter's current value,
    so the view never drifts from the registry, and it compares equal
    to (and converts to) a plain dict.  Item assignment raises
    ``TypeError`` — counts change only through ``Counter.inc`` on the
    objects in ``counters``, which the component keeps for its hot path.
    """

    __slots__ = ("counters",)

    def __init__(self, counters: dict[str, Counter]) -> None:
        self.counters = counters

    def __getitem__(self, key: str) -> int | float:
        return self.counters[key].value

    def __iter__(self) -> Iterator[str]:
        return iter(self.counters)

    def __len__(self) -> int:
        return len(self.counters)

    def __repr__(self) -> str:
        return repr(dict(self))


class Gauge:
    """A value that can move both ways (e.g. queue depth)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def dec(self, n: int | float = 1) -> None:
        self.value -= n


class Histogram:
    """Bounded-memory distribution: exact count/sum/min/max over all
    observations, percentiles over a sliding window of the most recent
    ``window`` observations."""

    __slots__ = ("count", "total", "min", "max", "_window")

    def __init__(self, window: int = DEFAULT_HISTOGRAM_WINDOW) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._window: deque[float] = deque(maxlen=window)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._window.append(value)

    def percentile(self, p: float) -> float | None:
        """p-th percentile (0..100) of the recent window; None when empty.

        Nearest-rank on the sorted window — exact for the retained
        observations, approximate for all-time once the window rolls.
        """
        if not self._window:
            return None
        ordered = sorted(self._window)
        rank = max(0, min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": (self.total / self.count) if self.count else None,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: int | float) -> None:
        pass

    def inc(self, n: int | float = 1) -> None:
        pass

    def dec(self, n: int | float = 1) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


#: Shared no-op gauge and histogram handed out by disabled registries.
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()

# Process-wide accounting so `benchmarks/run_all.py --quick` can report
# what a whole experiment did even though its registries (owned by
# short-lived Database instances) are gone by the time the table prints:
# live registries are tracked weakly; a registry folds its counters into
# the retired totals when it is garbage-collected.  `reset_aggregate`
# records the totals of the moment as a baseline the aggregate subtracts,
# so resetting never writes to a live counter.
_live_registries: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()
_retired_counters: dict[str, float] = {}
_aggregate_baseline: dict[str, float] = {}


class MetricsRegistry:
    """Registry of named instruments, shared across one pipeline.

    Instruments are identified by ``(name, labels)``; asking twice for
    the same identity returns the same object, so components on both
    sides of a boundary (e.g. a queue table and its broker) naturally
    share counts.
    """

    def __init__(
        self,
        clock: Any = None,
        *,
        enabled: bool = True,
        histogram_window: int = DEFAULT_HISTOGRAM_WINDOW,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.histogram_window = histogram_window
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._gauge_fns: dict[str, Callable[[], float]] = {}
        self._histograms: dict[str, Histogram] = {}
        # Failure accounting (always on, even when enabled=False).
        self._errors: dict[str, int] = {}
        self._last_errors: dict[str, BaseException] = {}
        _live_registries.add(self)

    # -- instrument factories -------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        if not self.enabled:
            return Counter()
        key = metric_key(name, labels)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def view(self, prefix: str, *keys: str, **labels: Any) -> CounterView:
        """A component's ``.stats``: one ``<prefix>.<key>`` counter per
        key, all with these labels."""
        return CounterView(
            {key: self.counter(f"{prefix}.{key}", **labels) for key in keys}
        )

    def adopt(self, counter: Counter, name: str, **labels: Any) -> Counter:
        """This registry's counter for ``(name, labels)``, credited with
        whatever ``counter`` counted before: how ``bind_metrics`` swaps a
        component's private counter for a published one without losing
        its pre-binding count."""
        bound = self.counter(name, **labels)
        if bound is not counter:
            bound.inc(counter.value)
        return bound

    def gauge(self, name: str, **labels: Any) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        key = metric_key(name, labels)
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge()
        return gauge

    def gauge_fn(self, name: str, fn: Callable[[], float], **labels: Any) -> None:
        """Register a gauge computed lazily at snapshot time — zero
        hot-path cost (used for e.g. queue depth)."""
        if not self.enabled:
            return
        self._gauge_fns[metric_key(name, labels)] = fn

    def histogram(self, name: str, **labels: Any) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        key = metric_key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(self.histogram_window)
        return histogram

    # -- failure accounting ---------------------------------------------------

    def record_error(self, stage: str, exc: BaseException) -> None:
        """Account for an exception a failure boundary is suppressing.

        Increments ``errors_suppressed{stage=...}`` and retains ``exc``
        as the stage's last error.  Never raises; never disabled.
        """
        self._errors[stage] = self._errors.get(stage, 0) + 1
        self._last_errors[stage] = exc

    def errors_suppressed(self, stage: str | None = None) -> int:
        if stage is not None:
            return self._errors.get(stage, 0)
        return sum(self._errors.values())

    def last_error(self, stage: str) -> BaseException | None:
        return self._last_errors.get(stage)

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """One coherent, JSON-friendly view of every instrument."""
        gauges = {key: gauge.value for key, gauge in self._gauges.items()}
        for key, fn in self._gauge_fns.items():
            try:
                gauges[key] = fn()
            except Exception:  # a broken provider must not break the dump
                gauges[key] = None
        return {
            "ts": self.clock.now() if self.clock is not None else None,
            "counters": {
                key: counter.value for key, counter in self._counters.items()
            },
            "gauges": gauges,
            "histograms": {
                key: histogram.snapshot()
                for key, histogram in self._histograms.items()
            },
            "errors_suppressed": dict(self._errors),
            "last_errors": {
                stage: f"{type(exc).__name__}: {exc}"
                for stage, exc in self._last_errors.items()
            },
        }

    def __del__(self) -> None:  # fold final counts into process totals
        try:
            _fold(self._counters.items())
            _fold(
                (f"errors_suppressed{{stage={stage}}}", count)
                for stage, count in self._errors.items()
            )
        except Exception:  # pragma: no cover — interpreter shutdown
            pass


#: The registry of components built without one: its counters count
#: and are never published.
UNPUBLISHED = MetricsRegistry(enabled=False)


def _fold(items: Iterable[tuple[str, Any]]) -> None:
    for key, value in items:
        count = value.value if isinstance(value, Counter) else value
        if count:
            _retired_counters[key] = _retired_counters.get(key, 0) + count


def absorb_snapshot(snapshot: dict[str, Any]) -> None:
    """Fold a REMOTE process's registry snapshot into this process's
    aggregate totals.

    Shard workers cannot appear in ``_live_registries`` (their
    registries live in other interpreters), so the coordinator absorbs
    each worker's final snapshot at shutdown — after which
    :func:`aggregate_counters` reports fleet-wide totals exactly as if
    the work had run in-process.
    """
    _fold(snapshot.get("counters", {}).items())
    _fold(
        (f"errors_suppressed{{stage={stage}}}", count)
        for stage, count in snapshot.get("errors_suppressed", {}).items()
    )


def _raw_totals() -> dict[str, float]:
    totals: dict[str, float] = dict(_retired_counters)
    for registry in list(_live_registries):
        for key, counter in registry._counters.items():
            if counter.value:
                totals[key] = totals.get(key, 0) + counter.value
        for stage, count in registry._errors.items():
            key = f"errors_suppressed{{stage={stage}}}"
            totals[key] = totals.get(key, 0) + count
    return totals


def aggregate_counters(*, by_name: bool = True) -> dict[str, float]:
    """Process-wide counter totals: retired registries, live ones, and
    any absorbed worker snapshots (:func:`absorb_snapshot`).

    Counted from the last :func:`reset_aggregate`.  With ``by_name``
    (default) labels are stripped and same-named counters summed — the
    compact view ``run_all --quick`` prints.
    """
    totals: dict[str, float] = {}
    for key, value in _raw_totals().items():
        value -= _aggregate_baseline.get(key, 0)
        if value:
            totals[key] = value
    if not by_name:
        return totals
    by: dict[str, float] = {}
    for key, value in totals.items():
        name, _labels = split_metric_key(key)
        by[name] = by.get(name, 0) + value
    return by


def merge_snapshots(
    snapshots: "dict[Any, dict[str, Any]]",
    *,
    label_name: str | None = None,
) -> dict[str, Any]:
    """Fold per-process registry snapshots into one coherent view.

    ``snapshots`` maps a source label (e.g. shard id) to the dict
    :meth:`MetricsRegistry.snapshot` produced in that process — the
    form shard workers ship over the control channel, since registry
    objects themselves never cross process boundaries.

    Merge rules: counters, gauges, and ``errors_suppressed`` sum per
    key; histograms merge their exact fields (count/sum/min/max, mean
    recomputed) but surface percentiles only when a single source
    observed the series (nearest-rank windows are not mergeable, and a
    fabricated quantile is worse than none).  With ``label_name`` each
    source's counters and gauges are ALSO retained under keys extended
    with ``{label_name}=<label>`` — how per-shard ``queue.depth``
    stays visible inside the fleet-wide fold.
    """
    merged_counters: dict[str, float] = {}
    merged_gauges: dict[str, float] = {}
    merged_errors: dict[str, int] = {}
    merged_last: dict[str, str] = {}
    histogram_parts: dict[str, list[dict[str, Any]]] = {}
    ts: float | None = None

    def relabel(key: str, label: Any) -> str:
        name, labels = split_metric_key(key)
        labels[label_name] = label  # type: ignore[index]
        return metric_key(name, labels)

    for label, snapshot in snapshots.items():
        if snapshot.get("ts") is not None:
            ts = max(ts, snapshot["ts"]) if ts is not None else snapshot["ts"]
        for key, value in snapshot.get("counters", {}).items():
            merged_counters[key] = merged_counters.get(key, 0) + value
            if label_name is not None:
                merged_counters[relabel(key, label)] = value
        for key, value in snapshot.get("gauges", {}).items():
            if value is None:
                continue
            merged_gauges[key] = merged_gauges.get(key, 0) + value
            if label_name is not None:
                merged_gauges[relabel(key, label)] = value
        for key, part in snapshot.get("histograms", {}).items():
            histogram_parts.setdefault(key, []).append(part)
        for stage, count in snapshot.get("errors_suppressed", {}).items():
            merged_errors[stage] = merged_errors.get(stage, 0) + count
        for stage, text in snapshot.get("last_errors", {}).items():
            merged_last[
                stage if label_name is None else f"{stage}[{label_name}={label}]"
            ] = text

    merged_histograms: dict[str, dict[str, Any]] = {}
    for key, parts in histogram_parts.items():
        if len(parts) == 1:
            merged_histograms[key] = dict(parts[0])
            continue
        count = sum(part["count"] for part in parts)
        total = sum(part["sum"] for part in parts)
        mins = [part["min"] for part in parts if part["min"] is not None]
        maxes = [part["max"] for part in parts if part["max"] is not None]
        merged_histograms[key] = {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else None,
            "min": min(mins) if mins else None,
            "max": max(maxes) if maxes else None,
            "p50": None,
            "p95": None,
            "p99": None,
        }

    return {
        "ts": ts,
        "sources": sorted(snapshots, key=str),
        "counters": merged_counters,
        "gauges": merged_gauges,
        "histograms": merged_histograms,
        "errors_suppressed": merged_errors,
        "last_errors": merged_last,
    }


def reset_aggregate() -> None:
    """Make the current process-wide totals the zero point of
    :func:`aggregate_counters` (the diff base for ``run_all``).

    Writes to no counter: live registries, their snapshots and the
    ``.stats`` views over them keep their values.
    """
    _aggregate_baseline.clear()
    _aggregate_baseline.update(_raw_totals())
