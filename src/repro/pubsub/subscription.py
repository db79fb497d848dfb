"""Topic subscriptions and the one matcher both brokers deliver through."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from repro.db.expr import Expression
from repro.errors import PubSubError, TopicNotFoundError
from repro.events import Event
from repro.pubsub.topic import Topic
from repro.rules.engine import event_context
from repro.rules.index import PredicateIndex
from repro.rules.rule import Rule, pattern_matches

Callback = Callable[[Event], None]


@dataclass
class TopicSubscription:
    """One subscriber's registration on a topic pattern.

    Nondurable subscriptions deliver straight to ``callback`` and miss
    events published while the subscriber is detached.  Durable
    subscriptions spool matched events into a per-subscriber queue
    (owned by the broker) and survive subscriber restarts — the
    database-backed guarantee the tutorial emphasizes.  The content
    filter is a :class:`Rule` named after the subscriber (``TRUE`` when
    there is none): a subscription is a rule whose action is "deliver".
    """

    subscriber: str
    topic_pattern: str
    rule: Rule
    durable: bool = False
    callback: Callback | None = None
    queue_name: str | None = None
    delivered: int = 0

    @classmethod
    def build(
        cls,
        subscriber: str,
        topic_pattern: str,
        *,
        content_filter: str | Expression | None = None,
        durable: bool = False,
        callback: Callback | None = None,
    ) -> "TopicSubscription":
        return cls(
            subscriber=subscriber,
            topic_pattern=topic_pattern.lower(),
            rule=Rule(subscriber, "TRUE" if content_filter is None else content_filter),
            durable=durable,
            callback=callback,
        )


class SubscriptionMatcher:
    """Topics and subscriptions, matched through the rule index.

    Each topic has one :class:`PredicateIndex` holding the rules of the
    subscriptions whose pattern covers it, so topic routing stays out
    of the filter namespace (a payload attribute named ``topic`` is the
    payload's).  Subscribing fills the index of every existing topic
    the pattern matches; creating a topic fills its index from the
    matching subscriptions.
    """

    def __init__(self) -> None:
        self.topics: dict[str, Topic] = {}
        self._subscriptions: dict[str, TopicSubscription] = {}
        self._indexes: dict[str, PredicateIndex] = {}
        self._order: dict[str, int] = {}
        self._registrations = itertools.count()

    def create_topic(self, name: str, *, retain: bool = False) -> Topic:
        name = name.lower()
        if name in self.topics:
            raise PubSubError(f"topic {name!r} already exists")
        topic = self.topics[name] = Topic(name, retain=retain)
        index = self._indexes[name] = PredicateIndex()
        for subscription in self._subscriptions.values():
            if pattern_matches(subscription.topic_pattern, name):
                index.add(subscription.rule)
        return topic

    def topic(self, name: str) -> Topic:
        try:
            return self.topics[name.lower()]
        except KeyError:
            raise TopicNotFoundError(f"topic {name!r} does not exist") from None

    def subscription(self, subscriber: str) -> TopicSubscription:
        try:
            return self._subscriptions[subscriber]
        except KeyError:
            raise PubSubError(
                f"subscriber {subscriber!r} is not registered"
            ) from None

    def check_vacant(self, subscriber: str) -> None:
        if subscriber in self._subscriptions:
            raise PubSubError(f"subscriber {subscriber!r} already registered")

    def add(self, subscription: TopicSubscription) -> None:
        subscriber = subscription.subscriber
        self.check_vacant(subscriber)
        self._subscriptions[subscriber] = subscription
        self._order[subscriber] = next(self._registrations)
        for name, index in self._indexes.items():
            if pattern_matches(subscription.topic_pattern, name):
                index.add(subscription.rule)

    def remove(self, subscriber: str) -> TopicSubscription:
        subscription = self.subscription(subscriber)
        del self._subscriptions[subscriber], self._order[subscriber]
        for index in self._indexes.values():
            index.remove(subscriber)
        return subscription

    def subscribed(self, topic: str) -> int:
        """How many subscriptions cover ``topic`` (a canonical name)."""
        return len(self._indexes[topic])

    def match(self, topic: str, event: Event) -> list[TopicSubscription]:
        """Subscriptions on ``topic`` whose filter accepts ``event``, in
        registration order (re-subscribing moves a name to the end).

        One context per event, the rules' own; only the index's
        candidates are evaluated, so a filter runs (and can raise) only
        when its anchor admits the event.
        """
        context = event_context(event)
        matched = [
            rule.rule_id
            for rule in self._indexes[topic].candidates(context)
            if rule.compiled_condition(context)
        ]
        matched.sort(key=self._order.__getitem__)
        return [self._subscriptions[subscriber] for subscriber in matched]
