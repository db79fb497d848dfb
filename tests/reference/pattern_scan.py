"""Scan-every-run reference for the CEP matcher.

This is ``repro.cq.pattern.PatternMatcher`` as it was before the run
store was indexed: every event visits every live run, expiry scans
every run, and ``max_runs`` truncates the survivor list.  It shares the
pattern model (``PatternElement``, ``Seq``, ``_Step``) with the product
and nothing about how runs are stored, found or expired, so
``tests/cq/test_pattern_store_equivalence.py`` compares two
independent run stores.  Kept verbatim; the only changes are the class
name and a private ``_Run``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.cq.pattern import _SELECTION_MODES, PatternElement, Seq
from repro.cq.stream import Operator, Stream
from repro.errors import PatternError
from repro.events import Event, correlate


@dataclass
class _Run:
    """One partial match."""

    position: int
    start_ts: float
    bindings: dict[str, Any] = field(default_factory=dict)
    matched: list[Event] = field(default_factory=list)
    run_id: int = field(default_factory=itertools.count(1).__next__)

    def fork(self) -> "_Run":
        return _Run(
            position=self.position,
            start_ts=self.start_ts,
            bindings=dict(self.bindings),
            matched=list(self.matched),
        )


class ScanPatternMatcher(Operator):
    """Matches a :class:`Seq` against a stream; emits one composite
    event per complete match."""

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
        self._runs: list[_Run] = []
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
        within = self.pattern.within

        if self.prune_expired and within is not None:
            live: list[_Run] = []
            for run in self._runs:
                if event.timestamp - run.start_ts > within:
                    self.stats["runs_pruned"] += 1
                else:
                    live.append(run)
            self._runs = live

        survivors: list[_Run] = []
        for run in self._runs:
            alive, completed = self._advance(run, event)
            for done in completed:
                self._emit_match(done, event.timestamp)
            survivors.extend(alive)

        # Every event may start a fresh run at step 0.
        seed = _Run(position=0, start_ts=event.timestamp)
        alive, completed = self._advance(seed, event)
        for done in completed:
            self.stats["runs_created"] += 1
            self._emit_match(done, event.timestamp)
        for run in alive:
            if run.matched:  # Idle seeds (no first match) are not kept.
                self.stats["runs_created"] += 1
                survivors.append(run)

        self._runs = survivors[: self.max_runs]
        self.stats["peak_runs"] = max(self.stats["peak_runs"], len(self._runs))

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
