"""End-to-end tests of the multi-process shard fleet.

Worker counts are bounded (2 shards) and every coordinator channel
carries a hard per-request socket timeout, so a wedged worker fails the
test instead of hanging the suite.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    QueueNotFoundError,
    ShardError,
    ShardUnavailable,
    ShardWorkerDied,
)
from repro.events import Event
from repro.pubsub import PubSubBroker
from repro.queues.message import Message
from repro.shard import (
    ShardCoordinator,
    ShardedQueueBroker,
    ShardMap,
)

pytestmark = pytest.mark.shard

#: Hard per-request deadline for every fleet test in this module.
TIMEOUT = 20.0


def queue_names_per_shard(shards: int = 2, per_shard: int = 1) -> dict[int, list[str]]:
    """Deterministically pick queue names that hash to each shard."""
    shard_map = ShardMap(range(shards))
    found: dict[int, list[str]] = {s: [] for s in range(shards)}
    for i in range(10_000):
        name = f"q{i}"
        owner = shard_map.shard_for(name)
        if len(found[owner]) < per_shard:
            found[owner].append(name)
        if all(len(names) == per_shard for names in found.values()):
            return found
    raise AssertionError("could not cover every shard")


@pytest.fixture()
def fleet():
    with ShardCoordinator(2, timeout=TIMEOUT) as coordinator:
        yield coordinator


class TestRoutedQueueOps:
    def test_publish_consume_ack_roundtrip(self, fleet):
        broker = ShardedQueueBroker(fleet)
        broker.create_queue("orders")
        ids = broker.publish_batch(
            "orders", [Message(payload={"n": i}) for i in range(8)]
        )
        assert ids == list(range(1, 9))
        messages = broker.consume_batch("orders", 8)
        assert [m.payload["n"] for m in messages] == list(range(8))
        assert broker.ack_batch("orders", [m.message_id for m in messages]) == 8
        assert broker.depth("orders") == 0

    def test_priority_and_headers_survive_the_wire(self, fleet):
        broker = ShardedQueueBroker(fleet)
        broker.create_queue("prio")
        broker.publish("prio", Message(payload="low", priority=1))
        broker.publish(
            "prio",
            Message(payload="high", priority=9, headers={"k": "v"},
                    correlation_id="c-1"),
        )
        first = broker.consume("prio")
        assert first.payload == "high"
        assert first.headers["k"] == "v"  # trace stamping may add more
        assert first.correlation_id == "c-1"
        assert first.priority == 9

    def test_requeue_returns_message(self, fleet):
        broker = ShardedQueueBroker(fleet)
        broker.create_queue("retry")
        broker.publish("retry", Message(payload="x"))
        message = broker.consume("retry")
        broker.requeue("retry", message.message_id)
        again = broker.consume("retry")
        assert again.payload == "x"
        assert again.attempts == 2

    def test_worker_errors_come_back_as_local_classes(self, fleet):
        broker = ShardedQueueBroker(fleet)
        with pytest.raises(QueueNotFoundError):
            broker.publish("missing", Message(payload="x"))
        with pytest.raises(QueueNotFoundError):
            broker.depth("missing")

    def test_queues_land_on_distinct_shards(self, fleet):
        """The routing actually spreads: our per-shard picks create
        their tables in different worker processes."""
        names = queue_names_per_shard(2)
        broker = ShardedQueueBroker(fleet)
        for shard_id, (name,) in names.items():
            assert broker.create_queue(name) == shard_id
        for shard_id, (name,) in names.items():
            ping = fleet.worker(shard_id).call("ping")
            assert name in ping["queues"]
            other = fleet.worker(1 - shard_id).call("ping")
            assert name not in other["queues"]

    def test_publish_many_returns_ids_in_input_order(self, fleet):
        names = queue_names_per_shard(2)
        q0, q1 = names[0][0], names[1][0]
        broker = ShardedQueueBroker(fleet)
        broker.create_queue(q0)
        broker.create_queue(q1)
        entries = [
            (q0 if i % 2 == 0 else q1, Message(payload={"i": i}))
            for i in range(10)
        ]
        ids = broker.publish_many(entries)
        assert len(ids) == 10
        # Per queue, ids must ascend in entry order.
        assert ids[0::2] == sorted(ids[0::2])
        assert ids[1::2] == sorted(ids[1::2])
        for queue_name, expect in ((q0, range(0, 10, 2)), (q1, range(1, 10, 2))):
            consumed = broker.consume_batch(queue_name, 10)
            assert [m.payload["i"] for m in consumed] == list(expect)

    def test_stats_and_metrics_merge_across_shards(self, fleet):
        names = queue_names_per_shard(2)
        q0, q1 = names[0][0], names[1][0]
        broker = ShardedQueueBroker(fleet)
        broker.create_queue(q0)
        broker.create_queue(q1)
        broker.publish_batch(q0, [Message(payload=i) for i in range(3)])
        broker.publish_batch(q1, [Message(payload=i) for i in range(5)])
        stats = broker.stats()
        assert stats[q0]["enqueued"] == 3
        assert stats[q1]["enqueued"] == 5
        merged = fleet.metrics()
        assert merged["counters"][f"queue.enqueued{{queue={q0}}}"] == 3
        assert merged["gauges"][f"queue.depth{{queue={q1},shard=1}}"] == 5
        # Fleet-wide depth: both shards' gauges summed.
        assert merged["gauges"][f"queue.depth{{queue={q0}}}"] == 3


class TestCrossShardAtomicity:
    def test_single_shard_group_skips_2pc(self, fleet):
        names = queue_names_per_shard(2, per_shard=2)
        a, b = names[0]
        broker = ShardedQueueBroker(fleet)
        broker.create_queue(a)
        broker.create_queue(b)
        gtid = broker.publish_atomic(
            [(a, Message(payload="x")), (b, Message(payload="y"))]
        )
        assert gtid is None  # degenerate local case, no decision round
        assert broker.depth(a) == 1 and broker.depth(b) == 1

    def test_cross_shard_publish_commits_everywhere(self, fleet):
        names = queue_names_per_shard(2)
        q0, q1 = names[0][0], names[1][0]
        broker = ShardedQueueBroker(fleet)
        broker.create_queue(q0)
        broker.create_queue(q1)
        gtid = broker.publish_atomic(
            [(q0, Message(payload="x")), (q1, Message(payload="y"))]
        )
        assert gtid is not None
        assert fleet.decisions.decision_for(gtid) == "committed"
        assert broker.depth(q0) == 1 and broker.depth(q1) == 1

    def test_missing_queue_aborts_the_whole_transaction(self, fleet):
        names = queue_names_per_shard(2)
        q0, q1 = names[0][0], names[1][0]
        broker = ShardedQueueBroker(fleet)
        broker.create_queue(q0)  # q1 deliberately not created
        with pytest.raises(ShardError):
            broker.publish_atomic(
                [(q0, Message(payload="x")), (q1, Message(payload="y"))]
            )
        # Atomicity: the prepared-but-aborted shard applied nothing.
        assert broker.depth(q0) == 0


class TestShardedPubSub:
    """Sharded pub/sub is ``PubSubBroker`` spooling through a
    ``ShardedQueueBroker``."""

    def pubsub(self, fleet):
        return PubSubBroker(fleet.engine, queues=ShardedQueueBroker(fleet))

    def test_fanout_spools_and_drains(self, fleet):
        pubsub = self.pubsub(fleet)
        pubsub.create_topic("sensor.temp")
        pubsub.subscribe("alice", "sensor.*", durable=True)
        pubsub.subscribe("bob", "sensor.temp", durable=True)
        events = [
            Event(event_type="reading", timestamp=float(i), payload={"v": i})
            for i in range(6)
        ]
        assert sum(pubsub.publish("sensor.temp", event) for event in events) == 12
        assert pubsub.backlog("alice") == 6
        seen: list[int] = []
        assert pubsub.attach_listener("alice", lambda e: seen.append(e["v"])) == 6
        assert seen == list(range(6))
        assert pubsub.backlog("alice") == 0
        assert pubsub.fetch("bob").payload == {"v": 0}
        assert pubsub.backlog("bob") == 5

    def test_non_matching_topic_spools_nothing(self, fleet):
        pubsub = self.pubsub(fleet)
        pubsub.create_topic("other.topic")
        pubsub.subscribe("alice", "sensor.*", durable=True)
        assert pubsub.publish(
            "other.topic",
            Event(event_type="x", timestamp=1.0, payload={}),
        ) == 0
        assert pubsub.backlog("alice") == 0

    def test_raising_listener_requeues_the_rest_of_its_batch(self, fleet):
        pubsub = self.pubsub(fleet)
        pubsub.create_topic("sensor")
        pubsub.subscribe("alice", "sensor", durable=True)
        for i in range(4):
            pubsub.publish("sensor", Event("reading", float(i), {"v": i}))
        seen: list[int] = []

        def crash_on_two(event):
            if event.payload["v"] == 2:
                raise RuntimeError("listener crash")
            seen.append(event.payload["v"])

        with pytest.raises(RuntimeError):
            pubsub.attach_listener("alice", crash_on_two)
        pubsub.detach_listener("alice")
        assert seen == [0, 1]
        assert pubsub.backlog("alice") == 2
        assert fleet.engine.obs.errors_suppressed("pubsub.drain") == 1
        assert pubsub.attach_listener("alice", lambda e: seen.append(e["v"])) == 2
        assert seen == [0, 1, 2, 3]

    def test_nondurable_callbacks_run_in_the_coordinator(self, fleet):
        pubsub = self.pubsub(fleet)
        pubsub.create_topic("sensor")
        inbox: list[Event] = []
        pubsub.subscribe("inline", "sensor", callback=inbox.append)
        assert pubsub.publish("sensor", Event("reading", 1.0, {"v": 1})) == 1
        assert [event.payload for event in inbox] == [{"v": 1}]


class TestWorkerDeath:
    def test_dead_worker_raises_instead_of_hanging(self, fleet):
        broker = ShardedQueueBroker(fleet)
        names = queue_names_per_shard(2)
        q1 = names[1][0]
        broker.create_queue(q1)
        fleet.worker(1).kill()
        # Default policies fail fast with the degraded-mode error (the
        # raw ShardWorkerDied is a coordinator-level detail now).
        with pytest.raises(ShardUnavailable):
            broker.publish(q1, Message(payload="x"))
        # The other shard keeps serving.
        q0 = names[0][0]
        broker.create_queue(q0)
        broker.publish(q0, Message(payload="ok"))
        assert broker.depth(q0) == 1

    def test_broadcast_returns_partial_results_with_missing(self, fleet):
        """Fleet-wide fan-outs degrade to partial answers: a dead shard
        lands in ``missing`` (with its error) instead of poisoning the
        whole broadcast."""
        broker = ShardedQueueBroker(fleet)
        names = queue_names_per_shard(2)
        q0, q1 = names[0][0], names[1][0]
        broker.create_queue(q0)
        broker.create_queue(q1)
        broker.publish(q0, Message(payload="a"))
        fleet.worker(1).kill()

        view = fleet.metrics_by_shard()
        assert view.missing == [1]
        assert 0 in view and 1 not in view
        assert isinstance(view.errors[1], ShardWorkerDied)

        # Queue-level stats survive too: shard 0's queues are there.
        stats = broker.stats()
        assert stats[q0]["enqueued"] == 1
        assert q1 not in stats

        # strict mode still propagates the failure for callers that
        # need all-or-nothing semantics.
        with pytest.raises(ShardWorkerDied):
            fleet.broadcast("stats", strict=True)
