"""Rules as data: definition and database persistence (§2.2.c.i.2).

A rule's condition is an ordinary expression AST — the same engine that
evaluates SQL WHERE clauses.  Because expressions serialize to JSON
(:func:`repro.db.expr.expression_to_dict`), rules are stored in a
normal database table (``_rules``), which is the tutorial's point:
databases that support *expressions as data* can subsume and extend
publish/subscribe middleware.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.db.database import Database
from repro.db.expr import (
    Expression,
    compile_predicate,
    expression_from_dict,
    expression_to_dict,
)
from repro.db.schema import Column
from repro.db.sql.parser import parse_expression
from repro.db.types import BOOL, INT, TEXT
from repro.errors import RuleError, RuleNotFoundError

RULES_TABLE = "_rules"

RuleAction = Callable[["Rule", Mapping[str, Any]], Any]


@dataclass
class Rule:
    """One rule: condition + action + routing metadata.

    Attributes:
        rule_id: unique name.
        condition: boolean expression over event/row attributes; given
            as text it is parsed with the SQL expression grammar.
        action: callable invoked as ``action(rule, context)`` when the
            condition holds.  Resolved by name from an
            :class:`repro.rules.actions.ActionRegistry` when rules are
            loaded from the database.
        event_types: optional event-type patterns (exact, ``*``, or
            dotted prefix ``orders.*``); None matches every type.
        priority: higher-priority rules run their actions first.
    """

    rule_id: str
    condition: Expression
    action: RuleAction | None = None
    action_name: str | None = None
    event_types: tuple[str, ...] | None = None
    priority: int = 0
    enabled: bool = True
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.condition, str):
            self.condition = parse_expression(self.condition)
        if self.event_types is not None:
            self.event_types = tuple(self.event_types)
        self._compiled_condition: Callable[[Mapping[str, Any]], bool] | None = None

    @property
    def compiled_condition(self) -> Callable[[Mapping[str, Any]], bool]:
        """The condition lowered to a single closure (compiled lazily,
        once per rule — engines force it at registration time)."""
        if self._compiled_condition is None:
            self._compiled_condition = compile_predicate(self.condition)
        return self._compiled_condition

    def recompile(self) -> Callable[[Mapping[str, Any]], bool]:
        """Re-lower the condition after it was replaced.

        Assign a *new* expression tree to ``condition`` (per-node memos
        make mutating a compiled tree in place unsupported), then call
        this; engines do so automatically on rule churn.
        """
        self._compiled_condition = None
        return self.compiled_condition

    @classmethod
    def from_text(
        cls,
        rule_id: str,
        condition: str,
        *,
        action: RuleAction | None = None,
        event_types: tuple[str, ...] | None = None,
        priority: int = 0,
        **metadata: Any,
    ) -> "Rule":
        """Build a rule from condition text (the common path)."""
        return cls(
            rule_id=rule_id,
            condition=parse_expression(condition),
            action=action,
            event_types=event_types,
            priority=priority,
            metadata=metadata,
        )

    def matches_event_type(self, event_type: str) -> bool:
        return self.event_types is None or any(
            pattern_matches(pattern, event_type) for pattern in self.event_types
        )


def pattern_matches(pattern: str, name: str) -> bool:
    """Name patterns shared by rule event types and pub/sub topics:
    exact, ``*`` (all), or ``a.b.*`` (dotted prefix)."""
    if pattern == "*" or pattern == name:
        return True
    return pattern.endswith(".*") and name.startswith(pattern[:-1])


class RuleStore:
    """Persists rules in the ``_rules`` catalog table.

    The store keeps no in-memory rule state — it is purely the
    (de)serialization boundary.  Actions are stored by name and rebound
    through a registry at load time, since callables cannot live in a
    table.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        if not db.catalog.has_table(RULES_TABLE):
            db.create_table(
                RULES_TABLE,
                [
                    Column("rule_id", TEXT, primary_key=True),
                    Column("condition", TEXT, nullable=False),
                    Column("action_name", TEXT),
                    Column("event_types", TEXT),
                    Column("priority", INT, nullable=False, default=0),
                    Column("enabled", BOOL, nullable=False, default=True),
                    Column("metadata", TEXT),
                ],
            )

    def save(self, rule: Rule) -> None:
        """Insert or replace the stored form of ``rule``."""
        table = self.db.catalog.table(RULES_TABLE)
        row = {
            "rule_id": rule.rule_id,
            "condition": json.dumps(expression_to_dict(rule.condition)),
            "action_name": rule.action_name,
            "event_types": (
                json.dumps(list(rule.event_types))
                if rule.event_types is not None
                else None
            ),
            "priority": rule.priority,
            "enabled": rule.enabled,
            "metadata": json.dumps(rule.metadata) if rule.metadata else None,
        }
        existing = table.lookup_rowids("rule_id", rule.rule_id)
        if existing:
            self.db.update_row(RULES_TABLE, existing[0], row)
        else:
            self.db.insert_row(RULES_TABLE, row)

    def delete(self, rule_id: str) -> None:
        table = self.db.catalog.table(RULES_TABLE)
        existing = table.lookup_rowids("rule_id", rule_id)
        if not existing:
            raise RuleNotFoundError(f"rule {rule_id!r} is not stored")
        self.db.delete_row(RULES_TABLE, existing[0])

    def load_all(
        self, actions: Mapping[str, RuleAction] | None = None
    ) -> list[Rule]:
        """Rebuild every stored rule, binding actions by name.

        A stored action name missing from ``actions`` raises
        :class:`RuleError` — silently dropping a rule's action would
        turn a monitoring rule into a no-op.
        """
        rules: list[Rule] = []
        for row in self.db.query(f"SELECT * FROM {RULES_TABLE}"):
            action = None
            if row["action_name"] is not None:
                if actions is None or row["action_name"] not in actions:
                    raise RuleError(
                        f"rule {row['rule_id']!r} references unregistered "
                        f"action {row['action_name']!r}"
                    )
                action = actions[row["action_name"]]
            rules.append(
                Rule(
                    rule_id=row["rule_id"],
                    condition=expression_from_dict(
                        json.loads(row["condition"])
                    ),
                    action=action,
                    action_name=row["action_name"],
                    event_types=(
                        tuple(json.loads(row["event_types"]))
                        if row["event_types"]
                        else None
                    ),
                    priority=row["priority"],
                    enabled=row["enabled"],
                    metadata=(
                        json.loads(row["metadata"]) if row["metadata"] else {}
                    ),
                )
            )
        return rules
