"""Count guard for pub/sub matching, on counts not time.

EXP-0's subscription shape (one literal topic, ``value BETWEEN lo AND
hi`` filters) laid out so every published value falls in exactly
``MATCHES`` intervals, at 50 and at 5 000 subscriptions.  A publish
builds one event context, evaluates only the index's candidates, and
the number of filters it evaluates is flat in the subscription count.
"""

from __future__ import annotations

import random
from unittest import mock

from repro.db import Database
from repro.events import Event
from repro.pubsub import PubSubBroker
from repro.pubsub import subscription as subscription_module
from repro.rules.index import PredicateIndex
from repro.rules.rule import Rule

MATCHES = 8
DOMAIN = 1000.0
PUBLISHES = 40


def _per_publish(subscriptions: int) -> dict[str, float]:
    broker = PubSubBroker(Database())
    broker.create_topic("alerts")
    width = DOMAIN * MATCHES / subscriptions
    for i in range(subscriptions):
        low = i * DOMAIN / subscriptions
        broker.subscribe(
            f"s{i}", "alerts",
            content_filter=f"value BETWEEN {low} AND {low + width}",
            callback=lambda event: None,
        )
    counts = {"contexts": 0, "candidates": 0, "evaluated": 0, "delivered": 0}
    compiled = Rule.compiled_condition.fget
    candidates = PredicateIndex.candidates
    context_of = subscription_module.event_context

    def counted_context(event):
        counts["contexts"] += 1
        return context_of(event)

    def counted_candidates(index, context):
        found = candidates(index, context)
        counts["candidates"] += len(found)
        return found

    def counted_condition(rule):
        condition = compiled(rule)

        def evaluate(context):
            counts["evaluated"] += 1
            return condition(context)

        return evaluate

    rng = random.Random(17)
    with mock.patch.object(subscription_module, "event_context", counted_context), \
            mock.patch.object(PredicateIndex, "candidates", counted_candidates), \
            mock.patch.object(Rule, "compiled_condition", property(counted_condition)):
        for _ in range(PUBLISHES):
            # Away from the domain's edges every value is in MATCHES intervals.
            value = rng.uniform(200.0, DOMAIN - 200.0)
            counts["delivered"] += broker.publish(
                "alerts", Event("alert", 0.0, {"value": value})
            )
    return {key: count / PUBLISHES for key, count in counts.items()}


def test_filters_evaluated_track_matches_not_subscriptions():
    small, large = _per_publish(50), _per_publish(5000)
    for counts in (small, large):
        assert counts["contexts"] == 1
        assert counts["evaluated"] == counts["candidates"]
        assert counts["delivered"] == MATCHES
    assert small["evaluated"] == large["evaluated"] == MATCHES
