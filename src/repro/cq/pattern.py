"""NFA-based event-pattern matching — the CEP core (§2.2.c.i.3).

Patterns are sequences of named elements::

    Seq(
        PatternElement("spike", "tick", "price > 100"),
        Kleene("rise", "tick", "rise_price IS NULL OR price > rise_price"),
        PatternElement("drop", "tick", "price < spike_price * 0.9"),
        within=60.0,
    )

Each element's condition is an expression over the current event's
payload plus *bindings* of previously matched elements, flattened as
``<name>_<field>`` (e.g. ``spike_price``).  A :class:`Kleene` element
matches one-or-more events; inside its own condition the binding
``<name>_<field>`` refers to the most recent accepted event, enabling
running constraints like "each price above the previous" — guard the
first iteration with ``<name>_<field> IS NULL OR ...`` since no binding
exists yet (unbound reads are SQL NULL).

Negated elements (``negated=True``) forbid an occurrence *between*
their neighbours: ``SEQ(A, ¬B, C)`` matches A…C with no B in between.

Event-selection strategies:

* ``"strict"`` — matched events must be contiguous; any non-matching
  event kills the run.
* ``"skip_till_next"`` (default) — irrelevant events are skipped; each
  run takes the first event that matches its next element.
* ``"skip_till_any"`` — every match forks the run, exploring all
  combinations (exhaustive, exponential in the worst case).

``within`` bounds the pattern's total duration and — crucially for
EXP-6 — lets the matcher *prune* runs that can no longer complete.
``prune_expired=False`` disables that pruning (the ablation arm) and
lets dead runs accumulate.

**The run store.**  An event only reaches the live runs that can
consume or kill it (SASE's partitioned active runs).  Runs are stored
by (step position, correlation value).  A step is *keyed* when every
condition that can consume or kill a run waiting there — the element,
its negation guards and, for a non-final Kleene step, the next step's
element and guards — shares one top-level conjunct ``col = <binding>``:
``col`` a payload attribute no element can bind, other than
``event_type`` / ``timestamp`` / ``kind``; ``<binding>`` an earlier
element's ``<name>_<field>``, or the step's own for a Kleene step.
Other steps, and every step under ``"strict"`` (any event can kill a
run there), keep one bucket that every event probes.  On a keyed step
an event probes the bucket of its ``col`` value, folded as the
predicate index folds (:func:`repro.db.types.equality_key`): NULL or
absent probes none, str / int / float / bool probe their own bucket,
and any other value — or a payload that carries ``<binding>`` itself,
shadowing the runs' bindings — probes every bucket of the step.  A run
whose binding is NULL sits in a bucket no value probes (``= NULL`` is
UNKNOWN).  NaN is a hole, as in the predicate index: ``compare_values``
calls it equal to every number, and no bucket does.  Expired runs leave
through a min-heap on start time, not a scan.  The store changes which
runs an event visits, never what a visit does, so matches and ``stats``
are those of visiting every run (``tests/reference/pattern_scan.py``);
an evaluation error can only come from a run the event can reach.

**Consistency.**  The matcher consumes events in arrival order and
never compensates: a late event is matched where it arrives, and a
retraction is refused — not forwarded, not folded in — and counted in
``unsupported_retractions`` (``cq.unsupported_retraction``).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Hashable, Iterator

from repro.cq.stream import Operator, Stream
from repro.db.expr import BinaryOp, ColumnRef, Expression, compile_predicate, conjuncts
from repro.db.sql.parser import parse_expression
from repro.db.types import equality_key
from repro.errors import PatternError
from repro.events import Event, correlate
from repro.obs.metrics import Counter, MetricsRegistry
from repro.rules.engine import EventContext

_SELECTION_MODES = ("strict", "skip_till_next", "skip_till_any")

#: Context names the matcher's own context fills when the payload lacks
#: them, so they cannot partition runs.
_RESERVED = frozenset({"event_type", "timestamp", "kind"})

#: Bucket key for values outside the folded classes (and the probe that
#: takes every bucket): only an every-bucket probe reaches those runs.
_OTHER = object()

_BY_CREATION = attrgetter("run_id")


@dataclass
class PatternElement:
    """One step of a sequence pattern."""

    name: str
    event_type: str | None = None
    condition: str | Expression | None = None
    negated: bool = False
    kleene: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.condition, str):
            self.condition = parse_expression(self.condition)

    def matches(self, event: Event, bindings: dict[str, Any]) -> bool:
        if self.event_type is not None and not event.matches_type(self.event_type):
            return False
        if self.condition is None:
            return True
        context = EventContext(bindings)
        context.update(event.payload)
        context.setdefault("event_type", event.event_type)
        context.setdefault("timestamp", event.timestamp)
        return compile_predicate(self.condition)(context)


def Kleene(
    name: str,
    event_type: str | None = None,
    condition: str | Expression | None = None,
) -> PatternElement:
    """One-or-more repetition of an element."""
    return PatternElement(name, event_type, condition, kleene=True)


@dataclass
class Seq:
    """A sequence pattern: positive steps with optional negation guards."""

    elements: tuple[PatternElement, ...]
    within: float | None = None

    def __init__(self, *elements: PatternElement, within: float | None = None) -> None:
        if not elements:
            raise PatternError("a sequence pattern needs at least one element")
        names = [element.name for element in elements]
        if len(set(names)) != len(names):
            raise PatternError(f"duplicate element names in pattern: {names}")
        if elements[0].negated or elements[-1].negated:
            raise PatternError(
                "a pattern cannot start or end with a negated element"
            )
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "within", within)

    def compile(self) -> list["_Step"]:
        """Group each positive element with the negations guarding it."""
        steps: list[_Step] = []
        pending_negations: list[PatternElement] = []
        for element in self.elements:
            if element.negated:
                pending_negations.append(element)
            else:
                steps.append(_Step(element, tuple(pending_negations)))
                pending_negations = []
        return steps


@dataclass(frozen=True)
class _Step:
    element: PatternElement
    guards: tuple[PatternElement, ...]  # negations active before this step


@dataclass
class _Run:
    """One partial match."""

    position: int
    start_ts: float
    bindings: dict[str, Any] = field(default_factory=dict)
    matched: list[Event] = field(default_factory=list)
    run_id: int = field(default_factory=itertools.count(1).__next__)
    key: Hashable = None  # its bucket at ``position`` while stored

    def fork(self) -> "_Run":
        return _Run(
            position=self.position,
            start_ts=self.start_ts,
            bindings=dict(self.bindings),
            matched=list(self.matched),
        )


def _bucket_key(value: Any) -> Hashable:
    """The bucket a correlation value belongs to: the folded value for
    str / int / float / bool, ``_OTHER`` for any other non-NULL value,
    None for NULL (no value probes it)."""
    if value is None:
        return None
    if isinstance(value, (str, int, float)):
        return equality_key(value)
    return _OTHER


def _correlation_keys(
    pattern: Seq, steps: list[_Step], selection: str
) -> list[tuple[str, str] | None]:
    """Per step, the ``(col, binding)`` conjunct shared by every
    condition that can consume or kill a run waiting there, or None."""
    if selection == "strict":
        return [None] * len(steps)
    every_prefix = tuple(f"{element.name}_" for element in pattern.elements)
    keys: list[tuple[str, str] | None] = []
    for position, step in enumerate(steps):
        gates = [step.element, *step.guards]
        if step.element.kleene and position + 1 < len(steps):
            following = steps[position + 1]
            gates += [following.element, *following.guards]
        bound = steps[: position + 1] if step.element.kleene else steps[:position]
        bindable = tuple(f"{earlier.element.name}_" for earlier in bound)
        shared: set[tuple[str, str]] | None = None
        for gate in gates:
            found = set(_correlations(gate.condition, bindable, every_prefix))
            shared = found if shared is None else shared & found
        keys.append(min(shared) if shared else None)
    return keys


def _correlations(
    condition: Expression | None,
    bindable: tuple[str, ...],
    every_prefix: tuple[str, ...],
) -> Iterator[tuple[str, str]]:
    """Top-level ``col = <binding>`` conjuncts of one condition."""
    if condition is None:
        return
    for part in conjuncts(condition):
        if not (isinstance(part, BinaryOp) and part.op == "="):
            continue
        left, right = part.left, part.right
        if not (isinstance(left, ColumnRef) and isinstance(right, ColumnRef)):
            continue
        if left.qualifier or right.qualifier:
            continue
        for column, binding in ((left.name, right.name), (right.name, left.name)):
            if (
                binding.startswith(bindable)
                and not column.startswith(every_prefix)
                and column not in _RESERVED
                and binding not in _RESERVED
            ):
                yield column, binding


class PatternMatcher(Operator):
    """Matches a :class:`Seq` against a stream; emits one composite
    event per complete match.

    The runs one event completes emit in the creation order of the runs
    it reaches (a fork completing on the event emits with the run it
    came from), then the run the event itself starts.  ``max_runs``
    caps the live runs by dropping the newest-created first.
    """

    def __init__(
        self,
        upstream: Stream,
        pattern: Seq,
        *,
        output_type: str,
        selection: str = "skip_till_next",
        prune_expired: bool = True,
        max_runs: int = 100_000,
        name: str | None = None,
    ) -> None:
        if selection not in _SELECTION_MODES:
            raise PatternError(f"unknown selection strategy {selection!r}")
        super().__init__(name or f"pattern({output_type})", upstream)
        self.pattern = pattern
        self.steps = pattern.compile()
        self.output_type = output_type
        self.selection = selection
        self.prune_expired = prune_expired
        self.max_runs = max_runs
        self._keys = _correlation_keys(pattern, self.steps, selection)
        # Per step: bucket key -> {run_id: run}.
        self._buckets: list[dict[Hashable, dict[int, _Run]]] = [
            {} for _ in self.steps
        ]
        self._runs: dict[int, _Run] = {}  # every live run, in creation order
        self._prunes = prune_expired and pattern.within is not None
        self._expiry: list[tuple[float, int]] = []  # (start_ts, run_id) heap
        self._m_unsupported = Counter()
        self.stats = {
            "matches": 0,
            "runs_created": 0,
            "runs_pruned": 0,
            "runs_killed": 0,
            "peak_runs": 0,
        }

    @property
    def active_runs(self) -> int:
        return len(self._runs)

    @property
    def unsupported_retractions(self) -> int:
        return self._m_unsupported.value

    def bind_metrics(self, metrics: MetricsRegistry) -> "PatternMatcher":
        super().bind_metrics(metrics)
        self._m_unsupported = metrics.adopt(
            self._m_unsupported, "cq.unsupported_retraction", stream=self.name
        )
        return self

    def on_retraction(self, event: Event) -> None:
        """Refuse a retraction: the matcher cannot compensate the
        matches or runs the retracted event fed, so it neither forwards
        the retraction as if it were output nor folds it in."""
        self._m_unsupported.inc()

    def _bind(self, run: _Run, element: PatternElement, event: Event) -> None:
        prefix = f"{element.name}_"
        for key, value in event.payload.items():
            run.bindings[prefix + key] = value
        run.bindings[prefix + "timestamp"] = event.timestamp
        if element.kleene:
            count_key = prefix + "count"
            run.bindings[count_key] = run.bindings.get(count_key, 0) + 1
        run.matched.append(event)

    def process(self, event: Event) -> None:
        timestamp = event.timestamp
        if self._prunes:
            self._expire(timestamp)

        runs = self._runs
        for run in self._take_reachable(event):
            alive, completed = self._advance(run, event)
            for done in completed:
                self._emit_match(done, timestamp)
            kept = False
            for live in alive:
                if live is run:
                    kept = True
                    self._place(run)
                else:
                    self._admit(live)  # a fork
            if not kept:
                del runs[run.run_id]

        # Every event may start a fresh run at step 0.
        seed = _Run(position=0, start_ts=timestamp)
        alive, completed = self._advance(seed, event)
        for done in completed:
            self.stats["runs_created"] += 1
            self._emit_match(done, timestamp)
        for run in alive:
            if run.matched:  # Idle seeds (no first match) are not kept.
                self.stats["runs_created"] += 1
                self._admit(run)

        while len(runs) > self.max_runs:
            self._unplace(runs.popitem()[1])
        self.stats["peak_runs"] = max(self.stats["peak_runs"], len(runs))

    def _expire(self, now: float) -> None:
        """Drop every run that started more than WITHIN before ``now``."""
        heap, runs, within = self._expiry, self._runs, self.pattern.within
        while heap and now - heap[0][0] > within:
            run = runs.pop(heapq.heappop(heap)[1], None)
            if run is not None:  # else it already died: a stale entry
                self._unplace(run)
                self.stats["runs_pruned"] += 1

    def _take_reachable(self, event: Event) -> list[_Run]:
        """Remove from the buckets, and return in creation order, every
        run whose step's conditions the event could satisfy."""
        payload = event.payload
        reached: list[_Run] = []
        for correlation, buckets in zip(self._keys, self._buckets):
            if not buckets:
                continue
            if correlation is not None:
                column, binding = correlation
                key = _OTHER if binding in payload else _bucket_key(payload.get(column))
                if key is None:
                    continue
                if key is not _OTHER:
                    bucket = buckets.pop(key, None)
                    if bucket is not None:
                        reached.extend(bucket.values())
                    continue
            for bucket in buckets.values():
                reached.extend(bucket.values())
            buckets.clear()
        reached.sort(key=_BY_CREATION)
        return reached

    def _admit(self, run: _Run) -> None:
        """Store a newly created run."""
        self._runs[run.run_id] = run
        if self._prunes:
            heap = self._expiry
            heapq.heappush(heap, (run.start_ts, run.run_id))
            if len(heap) > 2 * len(self._runs) + 64:
                # Entries of runs that died some other way outnumber the
                # live runs: rebuild so the heap stays O(live runs).
                heap[:] = [(live.start_ts, live.run_id) for live in self._runs.values()]
                heapq.heapify(heap)
        self._place(run)

    def _place(self, run: _Run) -> None:
        """File a live run under its current step and binding."""
        correlation = self._keys[run.position]
        key = None
        if correlation is not None:
            key = _bucket_key(run.bindings.get(correlation[1]))
        run.key = key
        buckets = self._buckets[run.position]
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = {}
        bucket[run.run_id] = run

    def _unplace(self, run: _Run) -> None:
        buckets = self._buckets[run.position]
        bucket = buckets[run.key]
        del bucket[run.run_id]
        if not bucket:
            del buckets[run.key]

    def _advance(self, run: _Run, event: Event) -> tuple[list[_Run], list[_Run]]:
        """Feed one event to one run.

        Returns ``(alive, completed)``.  A run may appear in both lists
        (a Kleene-final pattern emits progressively while remaining
        extendable).  An empty ``alive`` with empty ``completed`` means
        the run died (negation guard or strict-contiguity violation).
        """
        step = self.steps[run.position]
        for guard in step.guards:
            if guard.matches(event, run.bindings):
                self.stats["runs_killed"] += 1
                return [], []

        element = step.element
        last = run.position == len(self.steps) - 1

        if not element.kleene:
            if element.matches(event, run.bindings):
                alive: list[_Run] = []
                if self.selection == "skip_till_any" and run.matched:
                    # A copy keeps waiting for a later occurrence.
                    waiter = run.fork()
                    self.stats["runs_created"] += 1
                    alive.append(waiter)
                self._bind(run, element, event)
                run.position += 1
                if run.position == len(self.steps):
                    return alive, [run]
                alive.append(run)
                return alive, []
            if self.selection == "strict" and run.matched:
                self.stats["runs_killed"] += 1
                return [], []
            return [run], []

        # Kleene step.
        count = run.bindings.get(f"{element.name}_count", 0)
        can_extend = element.matches(event, run.bindings)
        can_advance = False
        if count > 0 and not last:
            next_step = self.steps[run.position + 1]
            for guard in next_step.guards:
                if guard.matches(event, run.bindings):
                    self.stats["runs_killed"] += 1
                    return [], []
            can_advance = next_step.element.matches(event, run.bindings)

        if can_extend and can_advance:
            # Ambiguous: fork — one run advances, this one extends.
            fork = run.fork()
            self.stats["runs_created"] += 1
            advanced_alive, advanced_done = self._take_next(fork, event)
            self._bind(run, element, event)
            alive = [run, *advanced_alive]
            completed = list(advanced_done)
            if last:
                completed.append(run)
            return alive, completed
        if can_extend:
            self._bind(run, element, event)
            # A completed Kleene-final run emits progressively but stays
            # alive to match longer repetitions.
            return [run], ([run] if last else [])
        if can_advance:
            return self._take_next(run, event)
        if self.selection == "strict" and run.matched:
            self.stats["runs_killed"] += 1
            return [], []
        return [run], []

    def _take_next(self, run: _Run, event: Event) -> tuple[list[_Run], list[_Run]]:
        """Close the current (Kleene) step and match the next one."""
        run.position += 1
        next_element = self.steps[run.position].element
        self._bind(run, next_element, event)
        if next_element.kleene:
            if run.position == len(self.steps) - 1:
                return [run], [run]  # Kleene-final progressive emit.
            return [run], []
        run.position += 1
        if run.position == len(self.steps):
            return [], [run]
        return [run], []

    def _emit_match(self, run: _Run, end_ts: float) -> None:
        # WITHIN is a semantic bound, enforced here no matter whether
        # expired-run *pruning* (the cost optimization) is enabled.
        within = self.pattern.within
        if within is not None and end_ts - run.start_ts > within:
            return
        self.stats["matches"] += 1
        payload = dict(run.bindings)
        payload["pattern_start"] = run.start_ts
        payload["pattern_end"] = end_ts
        self.emit(
            correlate(
                run.matched,
                self.output_type,
                payload,
                timestamp=end_ts,
                source=self.name,
            )
        )
