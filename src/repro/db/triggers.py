"""Database triggers — the synchronous event-capture point (§2.2.a.i).

Triggers fire inside the mutating transaction.  BEFORE-row triggers may
rewrite the incoming row or veto the operation; AFTER-row triggers see
the final row images and are where trigger-based event capture hooks
in.  Statement-level triggers fire once per statement with the count of
affected rows.

Because trigger actions run in the foreground transaction, their cost
is paid by the writer — the trade quantified against journal mining in
EXP-1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Sequence

from repro.db.expr import Expression, compile_predicate
from repro.errors import TriggerError


class TriggerTiming(Enum):
    BEFORE = "before"
    AFTER = "after"


class TriggerEvent(Enum):
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


@dataclass
class TriggerContext:
    """What a trigger action sees when it fires.

    ``old_row`` is None for INSERT, ``new_row`` is None for DELETE.
    For BEFORE-row triggers on INSERT/UPDATE, mutating ``new_row`` in
    place (or returning a dict from the action) changes what is stored.
    Statement-level contexts carry ``affected_rows`` instead of row
    images.
    """

    table: str
    event: TriggerEvent
    timing: TriggerTiming
    txid: int
    old_row: dict[str, Any] | None = None
    new_row: dict[str, Any] | None = None
    affected_rows: int = 0
    statement_level: bool = False
    # The firing statement's connection.  Trigger actions that perform
    # DML must pass it (``db.insert_row(..., conn=ctx.connection)``) so
    # cascaded work joins the same transaction instead of deadlocking
    # against its own table locks.
    connection: Any = None


TriggerAction = Callable[[TriggerContext], Any]

#: What :meth:`TriggerRegistry.on` returns for a (table, event) without
#: triggers.
_NO_TRIGGERS: tuple[Sequence["Trigger"], Sequence["Trigger"]] = ((), ())


@dataclass
class Trigger:
    """A registered trigger.

    ``when`` is an optional guard expression evaluated against a row
    context exposing plain column names (NEW image for insert/update,
    OLD image for delete).  The action only runs when the guard passes.
    """

    name: str
    table: str
    timing: TriggerTiming
    event: TriggerEvent
    action: TriggerAction
    when: Expression | None = None
    for_each_row: bool = True
    enabled: bool = True
    sequence: int = field(default_factory=itertools.count(1).__next__)

    def applies(self, context: TriggerContext) -> bool:
        if not self.enabled:
            return False
        if self.for_each_row == context.statement_level:
            return False
        if self.when is not None and not context.statement_level:
            guard_row = (
                context.new_row
                if context.new_row is not None
                else context.old_row
            )
            # Compiled once per WHEN expression (memoized on the node);
            # triggers fire per row, so the guard is a hot path.
            if guard_row is None or not compile_predicate(self.when)(guard_row):
                return False
        return True


class TriggerRegistry:
    """All triggers, indexed by (table, event) for O(1) dispatch."""

    # Recursion guard: trigger actions that perform DML can cascade;
    # beyond this depth we assume an unintended loop.
    MAX_DEPTH = 16

    def __init__(self) -> None:
        self._triggers: dict[str, Trigger] = {}
        # (table, event) -> (BEFORE triggers, AFTER triggers), each in
        # firing order.
        self._by_table_event: dict[
            tuple[str, TriggerEvent], tuple[list[Trigger], list[Trigger]]
        ] = {}
        self._depth = 0

    def __len__(self) -> int:
        return len(self._triggers)

    def create(self, trigger: Trigger) -> Trigger:
        if trigger.name in self._triggers:
            raise TriggerError(f"trigger {trigger.name!r} already exists")
        self._triggers[trigger.name] = trigger
        bucket = self._bucket(trigger)
        bucket.append(trigger)
        bucket.sort(key=lambda t: t.sequence)
        return trigger

    def _bucket(self, trigger: Trigger) -> list[Trigger]:
        before, after = self._by_table_event.setdefault(
            (trigger.table, trigger.event), ([], [])
        )
        return before if trigger.timing is TriggerTiming.BEFORE else after

    def drop(self, name: str) -> None:
        trigger = self._triggers.pop(name, None)
        if trigger is None:
            raise TriggerError(f"trigger {name!r} does not exist")
        self._bucket(trigger).remove(trigger)

    def get(self, name: str) -> Trigger:
        try:
            return self._triggers[name]
        except KeyError:
            raise TriggerError(f"trigger {name!r} does not exist") from None

    def names(self) -> list[str]:
        return sorted(self._triggers)

    def on(
        self, table: str, event: TriggerEvent
    ) -> tuple[Sequence[Trigger], Sequence[Trigger]]:
        """The (BEFORE, AFTER) triggers registered for (table, event),
        each in firing order (empty when there are none).  The DML core
        resolves them once per call and hands one to :meth:`fire` per
        row, skipping the row's context — and its copies of the row —
        at a timing with none, the common case on hot DML paths."""
        return self._by_table_event.get((table, event), _NO_TRIGGERS)

    def for_table(self, table: str) -> list[Trigger]:
        return sorted(
            (t for t in self._triggers.values() if t.table == table),
            key=lambda t: t.sequence,
        )

    def fire(
        self, triggers: Sequence[Trigger], context: TriggerContext
    ) -> dict[str, Any] | None:
        """Run those of ``triggers`` (one of the lists :meth:`on`
        returns, for ``context.timing``) that apply; returns the possibly
        rewritten NEW row for BEFORE triggers (None means unchanged)."""
        if not triggers:
            return None
        if self._depth >= self.MAX_DEPTH:
            raise TriggerError(
                f"trigger cascade exceeded depth {self.MAX_DEPTH} "
                f"on {context.table!r}"
            )
        rewritten: dict[str, Any] | None = None
        self._depth += 1
        try:
            for trigger in triggers:
                if not trigger.applies(context):
                    continue
                result = trigger.action(context)
                if (
                    context.timing is TriggerTiming.BEFORE
                    and isinstance(result, dict)
                    and not context.statement_level
                ):
                    rewritten = result
                    context.new_row = result
        finally:
            self._depth -= 1
        return rewritten
