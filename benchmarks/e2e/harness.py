"""Driver machinery shared by every workload: span tracer, the two timed
phases (closed-loop capacity, open-loop paced), GC pause accounting, and
small statistics helpers.

Nothing in here knows about the program under test; workloads hand the
driver a ``step(batch, dues)`` callable and read the results back.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

clock = time.perf_counter

#: Inputs handed to the program per driver iteration (both phases).
MICRO_BATCH = 64

#: Raw spans kept for the trace file; totals are kept for every span.
TRACE_FILE_SPAN_CAP = 50_000

#: A paced phase that runs this many times longer than scheduled is
#: overloaded beyond use; it stops and the unsent inputs count as failed.
PACED_OVERRUN_FACTOR = 3.0


class Tracer:
    """In-memory spans over one driving thread.

    Spans nest strictly (begin/end pairs on a stack), so a span's *self*
    time is its duration minus the durations of its direct children, and
    the self times of all spans sum exactly to the root spans' wall time.
    Per-name self time and call counts are accumulated for every span;
    the raw ``{name, start, end, parent, op_id}`` records are kept up to
    ``TRACE_FILE_SPAN_CAP`` for the trace file.

    A disabled tracer hands callables back unwrapped, so an untraced run
    executes no tracing code on the program's path.  An enabled one
    records only while ``recording`` is set, which the driver does for
    the timed phases (never between a span's begin and end).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.recording = False
        self.op_id: int | None = None
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.spans: list[tuple[int, str, int, int, int | None, int | None]] = []
        self._stack: list[list[Any]] = []
        self._next_id = 0

    def begin(self, name: str) -> None:
        if not self.recording:
            return
        parent = self._stack[-1][0] if self._stack else None
        self._next_id += 1
        # [id, name, child_ns, parent, op_id, start]; start is read last
        # so the tracer's own bookkeeping lands in the parent's self time.
        self._stack.append(
            [self._next_id, name, 0, parent, self.op_id, time.perf_counter_ns()]
        )

    def end(self) -> None:
        if not self.recording:
            return
        now = time.perf_counter_ns()
        span_id, name, child_ns, parent, op_id, start = self._stack.pop()
        duration = now - start
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < TRACE_FILE_SPAN_CAP:
            self.spans.append((span_id, name, start, now, parent, op_id))

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span around every call (``fn`` itself when
        tracing is off)."""
        if not self.enabled:
            return fn
        begin, end = self.begin, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    def timed(
        self, name: str, fn: Callable[..., Any], samples: list[float]
    ) -> Callable[..., Any]:
        """``wrap`` plus the wall time of every call appended to
        ``samples`` (traced runs only; ``fn`` itself otherwise)."""
        if not self.enabled:
            return fn
        spanned = self.wrap(name, fn)

        def call(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = spanned(*args, **kwargs)
            samples.append(clock() - start)
            return result

        return call

    def self_us(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1_000.0

    def total_ns(self) -> int:
        return sum(self.self_ns.values())

    def span_records(self) -> list[dict[str, Any]]:
        return [
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "op_id": op_id,
            }
            for span_id, name, start, end, parent, op_id in self.spans
        ]


class GcMonitor:
    """Collector pauses via ``gc.callbacks`` (collector stays on)."""

    def __init__(self) -> None:
        self.pauses_ns: list[int] = []
        self.gen2 = 0
        self._start = 0

    def _callback(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._start = time.perf_counter_ns()
        else:
            self.pauses_ns.append(time.perf_counter_ns() - self._start)
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._callback)


Step = Callable[[Sequence[Any], "Sequence[float] | None"], None]


@dataclass
class CapacityResult:
    ops: int
    wall_s: float
    #: Wall time of each micro-batch, in order.
    batch_walls_s: list[float] = field(default_factory=list)

    def cycle_throughputs(self, cycle_ops: int) -> list[float]:
        """ops/s of each full run of ``cycle_ops`` consecutive inputs."""
        per_cycle = cycle_ops // MICRO_BATCH
        walls = self.batch_walls_s
        return [
            cycle_ops / sum(walls[index : index + per_cycle])
            for index in range(0, len(walls) - per_cycle + 1, per_cycle)
        ]


def run_capacity(
    step: Step, inputs: Sequence[Any], give_up_s: float, tracer: Tracer
) -> CapacityResult:
    """Closed loop, one client: hand the program micro-batches as fast
    as it accepts them until the inputs are spent.  The count is fixed
    so that two commits do identical work; ``give_up_s`` only keeps a
    pathological regression from running into the driver's time limit.
    """
    result = CapacityResult(ops=0, wall_s=0.0)
    walls = result.batch_walls_s
    tracer.begin("driver")
    start = before = clock()
    deadline = start + give_up_s
    sent = 0
    total = len(inputs)
    while sent < total and before < deadline:
        step(inputs[sent : sent + MICRO_BATCH], None)
        sent = min(total, sent + MICRO_BATCH)
        after = clock()
        walls.append(after - before)
        before = after
    tracer.end()
    result.ops = sent
    result.wall_s = before - start
    return result


@dataclass
class PacedResult:
    sent: int
    unsent: int
    wall_s: float
    backlog_max: int
    generator_lag_s: list[float] = field(default_factory=list)


def run_paced(
    step: Step, inputs: Sequence[Any], rate: float, tracer: Tracer
) -> PacedResult:
    """Open loop, one client: input ``k`` is due at ``k / rate``.

    The driver busy-waits (a sleep would add the scheduler's wake-up
    jitter to every latency), takes every input already due (at most one
    micro-batch) and passes the due instants along, so latency is
    charged from when an input *should* have been sent: a stall is paid
    by everything queued behind it.
    """
    total = len(inputs)
    interval = 1.0 / rate
    result = PacedResult(sent=0, unsent=0, wall_s=0.0, backlog_max=0)
    lags = result.generator_lag_s
    tracer.begin("driver")
    start = clock()
    give_up = start + PACED_OVERRUN_FACTOR * total * interval
    sent = 0
    idle = False
    while sent < total:
        now = clock()
        due_count = min(total, int((now - start) * rate) + 1)
        if due_count <= sent:
            if not idle:
                idle = True
                tracer.begin("driver.idle")
            continue
        if idle:
            idle = False
            tracer.end()
        if now > give_up:
            break
        result.backlog_max = max(result.backlog_max, due_count - sent)
        upto = min(due_count, sent + MICRO_BATCH)
        dues = [start + k * interval for k in range(sent, upto)]
        lags.extend(now - due for due in dues)
        step(inputs[sent:upto], dues)
        sent = upto
    result.wall_s = clock() - start
    tracer.end()
    result.sent = sent
    result.unsent = total - sent
    return result


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered))))
    return ordered[rank]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them; a
    single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3
