"""The indexed broker delivers what the brute-force model delivers.

Seeded random interleavings of topic creation, subscribe, unsubscribe
(and re-subscribe under the same name) and publish, checked after every
step against ``tests/reference/pubsub_model.py``: same subscribers, same
order, same retained replays, and ``interested_consumers`` agreeing with
delivery.  Payloads mix absent and NULL attributes with ints, floats,
bools, text, lists and dicts on the filtered attributes.
"""

import random

import pytest

from repro.events import Event
from repro.pubsub import PubSubBroker
from tests.reference.pubsub_model import PubSubModel

TOPICS = ["alerts", "metrics.cpu", "metrics.mem", "state", "other.x"]
PATTERNS = ["alerts", "metrics.*", "*", "state", "metrics.cpu", "nothing.*"]
FILTERS = [
    None,
    "v > 5",
    "v >= 0 AND v < 3",
    "v BETWEEN 2 AND 8",
    "v = 3",
    "v != 3",
    "w = 'x'",
    "v < 4 AND w = 'y'",
    "v IS NULL",
    "v > 7 OR w = 'x'",
    "NOT (v > 5)",
    "tags = 3",
    "tags > 1",
    "topic = 'alerts'",
    "event_type = 'b'",
]
VALUES = [
    -1, 0, 2, 3, 3.0, 5.5, 9, True, False, "abc", "", [1, 2], {"a": 1}, None,
]
ABSENT = object()


def random_event(rng, index):
    payload = {}
    for key, pool in (
        ("v", VALUES),
        ("w", ["x", "y", 3, None]),
        ("tags", VALUES),
        ("topic", ["alerts", "state", None]),
    ):
        value = rng.choice(pool + [ABSENT])
        if value is not ABSENT:
            payload[key] = value
    return Event(rng.choice("ab"), float(index), payload)


@pytest.mark.parametrize("seed", range(6))
def test_broker_matches_model(db, seed):
    rng = random.Random(seed)
    broker, model = PubSubBroker(db), PubSubModel()
    deliveries = []
    names = [f"s{i}" for i in range(10)]

    def on(subscriber):
        return lambda event: deliveries.append((subscriber, event.event_id))

    for step in range(250):
        action = rng.random()
        if action < 0.1:
            name = rng.choice(TOPICS)
            if name in model.retain:
                continue
            retain = rng.random() < 0.5
            broker.create_topic(name, retain=retain)
            model.create_topic(name, retain=retain)
        elif action < 0.35:
            subscriber = rng.choice(names)
            if subscriber in model.subscriptions:
                broker.unsubscribe(subscriber)
                model.unsubscribe(subscriber)
                continue
            pattern, condition = rng.choice(PATTERNS), rng.choice(FILTERS)
            deliveries.clear()
            broker.subscribe(
                subscriber, pattern, content_filter=condition, callback=on(subscriber)
            )
            replayed = model.subscribe(subscriber, pattern, condition)
            assert deliveries == [(subscriber, e.event_id) for e in replayed], step
        elif model.retain:
            topic = rng.choice(sorted(model.retain))
            event = random_event(rng, step)
            expected = model.publish(topic, event)
            assert broker.interested_consumers(topic, event) == expected, step
            deliveries.clear()
            assert broker.publish(topic, event) == len(expected)
            assert deliveries == [(s, event.event_id) for s in expected], step
