"""Reference model of pub/sub matching: a brute-force loop.

Every publish walks every subscription in registration order, tests the
topic pattern, then evaluates the filter with the tree-walking oracle
(``expr_oracle``) — no index, no per-topic state beyond the retained
event.  It states the contract :class:`repro.pubsub.PubSubBroker` is
held to:

* a pattern is exact, ``*`` (every topic) or ``a.b.*`` (dotted prefix);
* a filter reads the event's payload, then ``event_type`` and
  ``timestamp`` where the payload has no such key (plus ``kind`` for
  non-data events and ``trace_id`` when set); absent attributes are
  NULL, and a filter that is not TRUE rejects;
* deliveries of one publish follow registration order, and
  re-subscribing a name registers it anew, at the end;
* subscribing replays each matching topic's retained event, in topic
  creation order, through the new subscription's filter.
"""

from __future__ import annotations

from typing import Any

from repro.db.sql.parser import parse_expression
from repro.events import Event
from tests.reference.expr_oracle import evaluate_predicate


class _Row(dict):
    """Absent attributes read as NULL."""

    def __contains__(self, key: object) -> bool:
        return True

    def __missing__(self, key: str) -> None:
        return None


def _pattern_matches(pattern: str, topic: str) -> bool:
    if pattern in ("*", topic):
        return True
    return pattern.endswith(".*") and topic.startswith(pattern[:-1])


def _row(event: Event) -> _Row:
    row = _Row(event.payload)
    row.setdefault("event_type", event.event_type)
    row.setdefault("timestamp", event.timestamp)
    if not event.is_data:
        row.setdefault("kind", event.kind)
    if event.trace_id is not None:
        row.setdefault("trace_id", event.trace_id)
    return row


class PubSubModel:
    def __init__(self) -> None:
        self.retain: dict[str, bool] = {}
        self.retained: dict[str, Event] = {}
        self.subscriptions: dict[str, tuple[str, Any]] = {}

    def create_topic(self, name: str, *, retain: bool = False) -> None:
        self.retain[name] = retain

    def subscribe(
        self, subscriber: str, pattern: str, content_filter: str | None = None
    ) -> list[Event]:
        """Register; returns the retained events delivered at once."""
        condition = None if content_filter is None else parse_expression(content_filter)
        self.subscriptions[subscriber] = (pattern, condition)
        return [
            self.retained[topic]
            for topic in self.retain
            if topic in self.retained
            and self._accepts(subscriber, topic, self.retained[topic])
        ]

    def unsubscribe(self, subscriber: str) -> None:
        del self.subscriptions[subscriber]

    def publish(self, topic: str, event: Event) -> list[str]:
        """The subscribers that receive ``event``, in delivery order."""
        if self.retain[topic]:
            self.retained[topic] = event
        return [
            subscriber
            for subscriber in self.subscriptions
            if self._accepts(subscriber, topic, event)
        ]

    def _accepts(self, subscriber: str, topic: str, event: Event) -> bool:
        pattern, condition = self.subscriptions[subscriber]
        if not _pattern_matches(pattern, topic):
            return False
        return condition is None or evaluate_predicate(condition, _row(event))
