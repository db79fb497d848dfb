"""The rule engine: evaluate external and internal data (§2.2.c.ii–iii).

*External* data: events presented to the rules service — the engine
identifies interested consumers (:meth:`RuleEngine.evaluate`).

*Internal* data: rows already in the database or messages in queues —
:meth:`RuleEngine.evaluate_table` and :meth:`evaluate_queue` run the
same rule set over stored data, "significantly optimized" by sharing
one parse of each condition and the predicate index across all rows.

Evaluation modes (the EXP-4 ablation):

* ``indexed`` (default) — candidate generation through the
  :class:`PredicateIndex`, then full evaluation of candidates only.
* ``naive`` — full evaluation of every registered rule, the baseline
  whose cost grows linearly with rule-set size.

``stats["conditions_evaluated"]`` counts full condition evaluations, so
benchmarks can report the work saved by indexing, independent of wall
clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.db.database import Database
from repro.errors import RuleError, RuleNotFoundError
from repro.events import Event
from repro.obs.metrics import UNPUBLISHED, MetricsRegistry
from repro.obs.trace import record_hop
from repro.queues.queue_table import QueueTable
from repro.rules.index import PredicateIndex
from repro.rules.rule import Rule


class EventContext(dict):
    """Row view of an event: absent attributes read as SQL NULL.

    Rule conditions routinely reference attributes that a given event
    type does not carry; in SQL terms those are NULL, and comparisons
    with them are UNKNOWN — the rule simply doesn't match.  A plain
    dict would raise instead.
    """

    def __contains__(self, key: object) -> bool:  # noqa: D105
        return True

    def __missing__(self, key: str) -> None:
        return None


def event_context(event: Event) -> EventContext:
    context = EventContext(event.payload)
    context.setdefault("event_type", event.event_type)
    context.setdefault("timestamp", event.timestamp)
    if not event.is_data:
        # Surface non-data kinds so rules can match (or skip) control
        # messages, and actions can stamp outgoing message headers.
        context.setdefault("kind", event.kind)
    if event.trace_id is not None:
        # Actions (e.g. EnqueueAction) read this to keep the outgoing
        # message on the originating event's trace.
        context.setdefault("trace_id", event.trace_id)
    return context


@dataclass
class RuleMatch:
    """One rule that matched one context."""

    rule: Rule
    context: Mapping[str, Any]
    event: Event | None = None


class RuleEngine:
    """Registered rules + evaluation strategies."""

    def __init__(
        self,
        *,
        mode: str = "indexed",
        metrics: MetricsRegistry = UNPUBLISHED,
    ) -> None:
        if mode not in ("indexed", "naive"):
            raise RuleError(f"unknown evaluation mode {mode!r}")
        self.mode = mode
        self._rules: dict[str, Rule] = {}
        self._index = PredicateIndex()
        # Type routing: exact-type buckets plus wildcard-pattern rules.
        self._by_exact_type: dict[str, set[str]] = {}
        self._wildcard_rules: set[str] = set()
        # Share a pipeline registry (e.g. Database.obs) to surface rule
        # work in the same snapshot; without one, counts stay private.
        self.stats = metrics.view(
            "rules",
            "events_evaluated", "conditions_evaluated", "matches", "actions_run",
        )
        (self._m_events, self._m_conditions, self._m_matches,
         self._m_actions) = self.stats.counters.values()
        self._m_compiles = metrics.counter("rules.compiles")

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    # -- registration -------------------------------------------------------

    def add_rule(self, rule: Rule) -> Rule:
        if rule.rule_id in self._rules:
            raise RuleError(f"rule {rule.rule_id!r} already registered")
        self._rules[rule.rule_id] = rule
        self._index.add(rule)
        # Compile at registration so evaluation never pays the lowering
        # cost; re-adding after churn recompiles because a replaced rule
        # carries a fresh condition tree.
        rule.recompile()
        self._m_compiles.inc()
        if rule.event_types is None:
            self._wildcard_rules.add(rule.rule_id)
        else:
            for pattern in rule.event_types:
                if "*" in pattern:
                    self._wildcard_rules.add(rule.rule_id)
                else:
                    self._by_exact_type.setdefault(pattern, set()).add(
                        rule.rule_id
                    )
        return rule

    def add(
        self,
        rule_id: str,
        condition: str,
        *,
        action: Any = None,
        event_types: tuple[str, ...] | None = None,
        priority: int = 0,
    ) -> Rule:
        """Shorthand: register a rule from condition text."""
        return self.add_rule(
            Rule.from_text(
                rule_id,
                condition,
                action=action,
                event_types=event_types,
                priority=priority,
            )
        )

    def remove_rule(self, rule_id: str) -> None:
        rule = self._rules.pop(rule_id, None)
        if rule is None:
            raise RuleNotFoundError(f"rule {rule_id!r} is not registered")
        self._index.remove(rule_id)
        self._wildcard_rules.discard(rule_id)
        for bucket in self._by_exact_type.values():
            bucket.discard(rule_id)

    def set_enabled(self, rule_id: str, enabled: bool) -> None:
        try:
            self._rules[rule_id].enabled = enabled
        except KeyError:
            raise RuleNotFoundError(f"rule {rule_id!r} is not registered") from None

    def rules(self) -> list[Rule]:
        return sorted(self._rules.values(), key=lambda r: (-r.priority, r.rule_id))

    def load(self, store: "Any", actions: Mapping[str, Any] | None = None) -> int:
        """Register every rule persisted in a
        :class:`repro.rules.rule.RuleStore`, binding actions by name.
        Returns the number of rules loaded (already-registered ids are
        replaced, so load() after a crash is idempotent)."""
        loaded = 0
        for rule in store.load_all(actions):
            if rule.rule_id in self._rules:
                self.remove_rule(rule.rule_id)
            self.add_rule(rule)
            loaded += 1
        return loaded

    # -- evaluation ----------------------------------------------------------

    def evaluate_context(
        self,
        context: Mapping[str, Any],
        *,
        event: Event | None = None,
        run_actions: bool = True,
    ) -> list[RuleMatch]:
        """Evaluate all applicable rules against one context."""
        self._m_events.inc()
        event_type = event.event_type if event is not None else None
        # Type filtering probes the wildcard/exact-type sets per
        # candidate instead of materializing their union per event —
        # with mostly-wildcard rule sets that union is O(rules), paid
        # even when the index admits only a handful of candidates.
        wildcard = self._wildcard_rules
        exact: set[str] | tuple = (
            self._by_exact_type.get(event_type, ())
            if event_type is not None
            else ()
        )

        if self.mode == "indexed":
            candidates: Iterable[Rule] = self._index.candidates(context)
        else:
            candidates = self._rules.values()

        matches: list[RuleMatch] = []
        for rule in candidates:
            if not rule.enabled:
                continue
            if event_type is not None:
                if rule.rule_id not in wildcard and rule.rule_id not in exact:
                    continue
                if not rule.matches_event_type(event_type):
                    continue
            self._m_conditions.inc()
            if rule.compiled_condition(context):
                matches.append(RuleMatch(rule=rule, context=context, event=event))
        matches.sort(key=lambda m: (-m.rule.priority, m.rule.rule_id))
        if matches:
            self._m_matches.inc(len(matches))
            trace_id = event.trace_id if event is not None else None
            if trace_id is not None:
                ts = event.timestamp if event is not None else 0.0
                for match in matches:
                    record_hop(
                        trace_id, "rule.match", ts, rule=match.rule.rule_id
                    )
        if run_actions:
            for match in matches:
                if match.rule.action is not None:
                    match.rule.action(match.rule, context)
                    self._m_actions.inc()
        return matches

    def evaluate(self, event: Event, *, run_actions: bool = True) -> list[RuleMatch]:
        """Evaluate an external event (§2.2.c.ii)."""
        return self.evaluate_context(
            event_context(event), event=event, run_actions=run_actions
        )

    def evaluate_table(
        self,
        db: Database,
        table_name: str,
        *,
        run_actions: bool = False,
    ) -> list[RuleMatch]:
        """Evaluate internal data: every row of a table (§2.2.c.iii)."""
        table = db.catalog.table(table_name)
        matches: list[RuleMatch] = []
        for _rowid, row in table.scan():
            matches.extend(
                self.evaluate_context(
                    EventContext(row), run_actions=run_actions
                )
            )
        return matches

    def evaluate_queue(
        self,
        queue: QueueTable,
        *,
        run_actions: bool = False,
    ) -> list[RuleMatch]:
        """Evaluate internal data: pending messages in a queue."""
        matches: list[RuleMatch] = []
        for message in queue.browse():
            matches.extend(
                self.evaluate_context(
                    EventContext(message.filter_context()),
                    run_actions=run_actions,
                )
            )
        return matches
