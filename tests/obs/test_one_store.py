"""Each count lives in one store: a registry counter.

For every component that exposes a count — a ``.stats`` mapping,
``Database.statistics`` or a count attribute — a small workload runs
and each exposed number must equal the counter the registry publishes
for it.  The workload runs three ways:

* ``enabled``: a publishing registry; every key is in the snapshot.
* ``disabled``: ``metrics_enabled=False`` / ``MetricsRegistry(enabled=False)``;
  the counts are still right, and the snapshot's counters are ``{}``.
* ``none``: components built without a registry (a database always
  owns one, so database-backed components run disabled here).

The expected counts are the same in all three modes.
"""

from __future__ import annotations

import pytest

from repro.clock import SimulatedClock
from repro.cq.aggregate import Count, Sum, WindowAggregate
from repro.cq.ivm import MaterializedView
from repro.cq.operators import StreamJoin
from repro.cq.pattern import PatternElement, PatternMatcher, Seq
from repro.cq.stream import Stream
from repro.cq.window import OUTPUT_SPECULATIVE, TumblingWindow
from repro.db import Database
from repro.errors import DatabaseError
from repro.events import Event
from repro.obs.metrics import MetricsRegistry, metric_key
from repro.pubsub.broker import PubSubBroker
from repro.pubsub.delivery import DeliveryManager
from repro.queues import Message, QueueBroker, QueueTable
from repro.queues.propagation import PropagationLink, Propagator
from repro.rules.engine import RuleEngine

MODES = ("enabled", "disabled", "none")


@pytest.fixture(params=MODES)
def mode(request):
    return request.param


def registry_for(mode: str) -> MetricsRegistry | None:
    return {
        "enabled": MetricsRegistry(),
        "disabled": MetricsRegistry(enabled=False),
        "none": None,
    }[mode]


def check(mode, snapshot, exposed, keys):
    """``exposed`` maps a name to the count a component shows; ``keys``
    maps the same name to the registry key that must publish it."""
    counters = snapshot["counters"]
    for name, value in exposed.items():
        if mode == "enabled":
            assert counters[keys[name]] == value, name
        else:
            assert keys[name] not in counters, name


def view_keys(view, prefix, **labels):
    return {key: metric_key(f"{prefix}.{key}", labels) for key in view}


# -- free-standing components ----------------------------------------------


def test_rule_engine(mode):
    registry = registry_for(mode)
    engine = RuleEngine() if registry is None else RuleEngine(metrics=registry)
    fired = []
    engine.add("hot", "x > 5", action=lambda rule, ctx: fired.append(ctx["x"]))
    engine.add("cold", "x < 0")
    for x in (1, 7, -3, 9):
        engine.evaluate(Event("reading", float(x), {"x": x}))
    assert engine.stats == {
        "events_evaluated": 4,
        "conditions_evaluated": 3,
        "matches": 3,
        "actions_run": 2,
    }
    assert fired == [7, 9]
    if registry is not None:
        keys = view_keys(engine.stats, "rules")
        check(mode, registry.snapshot(), engine.stats, keys)
        if mode == "disabled":
            assert registry.snapshot()["counters"] == {}


def test_cq_operators(mode):
    registry = registry_for(mode)
    given = {} if registry is None else {"metrics": registry}

    def bound(stream):
        return stream if registry is None else stream.bind_metrics(registry)

    source = bound(Stream("src"))
    window = bound(
        TumblingWindow(
            source,
            10.0,
            allowed_lateness=5.0,
            output_mode=OUTPUT_SPECULATIVE,
            name="w",
        )
    )
    aggregate = WindowAggregate(
        window,
        "summary",
        {"n": (None, Count), "total": ("v", Sum)},
        name="agg",
        **given,
    )
    view = MaterializedView("totals", {"n": (None, Count)}, **given).bind_stream(
        source, batch_size=2
    )
    for timestamp in (1.0, 12.0, 8.0, 0.5):  # 8.0 revises, 0.5 is too late
        source.push(Event("tick", timestamp, {"v": 1}))
    source.push(Event("tick", 12.0, {"v": 1}).to_retraction())
    view.flush()

    left, right = Stream("l"), Stream("r")
    join = bound(
        StreamJoin(left, right, key_field="k", window=1.0, output_type="j")
    )
    left.push(Event("l", 1.0, {"k": None}))
    right.push(Event("r", 1.0, {}))

    matcher = bound(
        PatternMatcher(
            Stream("p"),
            Seq(
                PatternElement("a", "tick", "v > 0"),
                PatternElement("b", "tick", "v > 0"),
            ),
            output_type="pair",
            name="pat",
        )
    )
    matcher.push(Event("tick", 1.0, {"v": 1}).to_retraction())

    counts = {
        "source.in": source.events_in,
        "source.out": source.events_out,
        "window.late": window.late_dropped,
        "window.retractions": window.retractions_emitted,
        "aggregate.retractions": aggregate.retractions_emitted,
        "join.null_key": join.null_key_dropped,
        "pattern.unsupported": matcher.unsupported_retractions,
    }
    snap = view.snapshot()
    counts.update(
        {
            "view.deltas": snap.deltas_applied,
            "view.batches": snap.batches_folded,
            "view.retractions": snap.retractions_applied,
        }
    )
    assert counts == {
        "source.in": 5,
        "source.out": 5,
        "window.late": 1,
        "window.retractions": 1,
        "aggregate.retractions": 1,
        "join.null_key": 2,
        "pattern.unsupported": 1,
        "view.deltas": 5,
        "view.batches": 3,
        "view.retractions": 1,
    }
    if registry is None:
        return
    check(
        mode,
        registry.snapshot(),
        counts,
        {
            "source.in": "cq.events_in{stream=src}",
            "source.out": "cq.events_out{stream=src}",
            "window.late": "cq.late_dropped{stream=w}",
            "window.retractions": "cq.retractions_emitted{stream=w}",
            "aggregate.retractions": "cq.agg.retractions_emitted{stream=agg}",
            "join.null_key": "cq.null_key_dropped{stream=join(l,r)}",
            "pattern.unsupported": "cq.unsupported_retraction{stream=pat}",
            "view.deltas": "view.deltas_applied{view=totals}",
            "view.batches": "view.batches_folded{view=totals}",
            "view.retractions": "view.retractions_applied{view=totals}",
        },
    )
    if mode == "disabled":
        assert registry.snapshot()["counters"] == {}


def test_late_bind_carries_the_count_once():
    stream = Stream("s")
    stream.push(Event("e", 1.0, {}))
    registry = MetricsRegistry()
    stream.bind_metrics(registry)
    stream.bind_metrics(registry)  # rebinding to the same counter adds nothing
    stream.push(Event("e", 2.0, {}))
    assert stream.events_in == 2
    assert registry.snapshot()["counters"]["cq.events_in{stream=s}"] == 2


# -- database-backed components -------------------------------------------


def test_database_pipeline(mode):
    db = Database(
        clock=SimulatedClock(start=100.0), metrics_enabled=mode == "enabled"
    )
    db.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    db.execute("INSERT INTO t VALUES (1, 10)")
    db.execute("INSERT INTO t VALUES (2, 20)")
    db.execute("UPDATE t SET b = 11 WHERE a = 1")
    db.execute("DELETE FROM t WHERE a = 2")
    with pytest.raises(DatabaseError):
        db.execute("INSERT INTO t VALUES (1, 99)")  # duplicate key: rollback
    for _ in range(2):
        db.query("SELECT b FROM t WHERE a = 1")

    broker = QueueBroker(db)
    source = broker.create_queue("src")
    outbound = QueueBroker(db, name="out")
    sink = outbound.create_queue("dst")
    propagator = Propagator(broker, "src").add_link(
        PropagationLink(name="to-dst", broker=outbound, queue_name="dst")
    )
    delivery = DeliveryManager(outbound, "dst", max_attempts=5)
    for i in range(3):
        broker.publish("src", Message(payload={"i": i}))
    assert propagator.pump() == 3
    failures = iter([True, False, False, False])

    def consumer(message):
        if next(failures):
            raise RuntimeError("first delivery fails")

    delivery.process_batch(consumer)
    db.clock.advance(1.0)
    delivery.process_batch(consumer)

    pubsub = PubSubBroker(db)
    pubsub.create_topic("alerts")
    pubsub.subscribe("inline", "alerts", callback=lambda event: None)
    pubsub.subscribe("spool", "alerts", durable=True)
    for i in range(2):
        pubsub.publish("alerts", Event("alert", 100.0 + i, {"i": i}))
    assert pubsub.fetch("spool") is not None

    exposed = {
        "db": (db.statistics, view_keys(db.statistics, "db")),
        "cache": (
            db.statement_cache.stats,
            view_keys(db.statement_cache.stats, "statement_cache"),
        ),
        "src": (source.stats, view_keys(source.stats, "queue", queue="src")),
        "dst": (sink.stats, view_keys(sink.stats, "queue", queue="dst")),
        "prop": (propagator.stats, view_keys(propagator.stats, "prop", source="src")),
        "delivery": (
            delivery.stats,
            view_keys(delivery.stats, "delivery", queue="dst"),
        ),
        "pubsub": (pubsub.stats, view_keys(pubsub.stats, "pubsub", broker="pubsub")),
    }
    assert {name: dict(view) for name, (view, _keys) in exposed.items()} == {
        "db": {
            "inserts": 10,
            "updates": 10,
            "deletes": 8,
            "commits": 28,  # the pump's 3 forwards are one publish_batch
            "rollbacks": 1,
        },
        "cache": {"hits": 1, "misses": 7, "evictions": 0, "invalidations": 7},
        "src": {"enqueued": 3, "dequeued": 3, "acked": 3, "requeued": 0, "expired": 0},
        "dst": {"enqueued": 3, "dequeued": 4, "acked": 3, "requeued": 1, "expired": 0},
        "prop": {"forwarded": 3, "retried": 0, "dead_lettered": 0},
        "delivery": {
            "delivered": 4,
            "acked": 3,
            "redelivered": 1,
            "consumer_errors": 1,
            "dead_lettered": 0,
        },
        "pubsub": {"published": 2, "delivered": 3, "spooled": 2},
    }
    snapshot = db.metrics()
    for view, keys in exposed.values():
        check(mode, snapshot, view, keys)
    check(mode, snapshot, {"fsyncs": db.wal.flush_count}, {"fsyncs": "wal.fsyncs"})
    assert db.wal.flush_count > 0
    if mode != "enabled":
        assert snapshot["counters"] == {}


def test_two_handles_on_one_queue_read_the_shared_total():
    # The identity rule: a count belongs to (registry, name, labels).
    db = Database(clock=SimulatedClock(start=0.0))
    first = QueueTable(db, "shared")
    second = QueueTable(db, "shared")
    first.enqueue(Message(payload={}))
    second.enqueue(Message(payload={}))
    assert first.stats["enqueued"] == second.stats["enqueued"] == 2


# -- read-only views -----------------------------------------------------------


def test_views_refuse_writes():
    db = Database(clock=SimulatedClock(start=0.0))
    queue = QueueBroker(db).create_queue("q")
    for view in (
        db.statistics,
        db.statement_cache.stats,
        queue.stats,
        RuleEngine().stats,
        PubSubBroker(db).stats,
    ):
        key = next(iter(view))
        with pytest.raises(TypeError):
            view[key] = 1
    stream = Stream("s")
    with pytest.raises(AttributeError):
        stream.events_in = 1


# -- the shard coordinator's registry ------------------------------------------


@pytest.mark.shard
def test_sharded_pubsub_and_replication_count_on_the_coordinator():
    from repro.shard import ShardCoordinator, ShardedQueueBroker

    with ShardCoordinator(1, replication_factor=1, timeout=20.0) as fleet:
        pubsub = PubSubBroker(fleet.engine, queues=ShardedQueueBroker(fleet))
        pubsub.create_topic("sensor")
        pubsub.subscribe("alice", "sensor", durable=True)
        for i in range(3):
            pubsub.publish("sensor", Event("reading", float(i), {"v": i}))
        assert pubsub.attach_listener("alice", lambda event: None) == 3
        assert pubsub.stats == {"published": 3, "spooled": 3, "delivered": 3}
        counters = fleet.engine.obs.snapshot()["counters"]
        check(
            "enabled",
            {"counters": counters},
            pubsub.stats,
            view_keys(pubsub.stats, "pubsub", broker="pubsub"),
        )
        assert counters["shard.replication.recorded"] > 0
        assert (
            counters["shard.replication.shipped"]
            == counters["shard.replication.recorded"]
        )
        assert counters["shard.replication.replica_failures"] == 0
