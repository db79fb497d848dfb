"""``pipeline_inproc`` and ``pipeline_sharded``: the paper's whole dataflow.

One source row travels ``Database.insert_row`` -> ``TriggerCapture`` ->
``RuleEngine`` -> ``EnqueueAction`` -> staging queue -> propagation ->
outbound queue -> delivery -> ``PubSubBroker.publish`` -> content filter
-> ``VirtFilter.offer`` -> the recipient's delivery callback.

The two workloads share inputs, rules, subscriptions and recipients.
They differ only in where the two queues live: in process
(``QueueBroker`` + ``Propagator`` + ``DeliveryManager``), or behind a
``ShardedQueueBroker`` on a one-worker ``ShardCoordinator``, forwarded
and consumed with the batch calls.  The difference between the two rows
is therefore the shard wire.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
from collections import Counter
from typing import Any, Sequence

import numpy as np

from harness import Tracer, clock, percentile
from repro.capture.trigger_capture import TriggerCapture
from repro.core.virt import RecipientProfile, VirtFilter, VirtScorer
from repro.db.database import Database
from repro.events import Event
from repro.pubsub.broker import PubSubBroker
from repro.pubsub.delivery import DeliveryManager
from repro.queues.broker import QueueBroker
from repro.queues.message import Message
from repro.queues.propagation import PropagationLink, Propagator
from repro.rules.actions import EnqueueAction
from repro.rules.engine import RuleEngine
from repro.shard import ShardCoordinator, ShardedQueueBroker
from repro.shard.protocol import (
    consumed_to_wire,
    message_to_wire,
    wire_to_consumed,
    wire_to_message,
)

REGIONS = tuple(f"r{i}" for i in range(8))
SENSORS = 500
STAGING, OUTBOUND, TOPIC = "staging", "outbound", "alerts"
READINGS_DDL = (
    "CREATE TABLE readings (id INT PRIMARY KEY, sensor INT NOT NULL,"
    " region TEXT NOT NULL, value REAL NOT NULL, score REAL NOT NULL)"
)
ALERT_TYPE = "alert.match"
#: Messages a forwarding or consumption call takes at once; a full batch
#: means "call again".
QUEUE_BATCH = 256
#: VirtScorer's default (surprise, actionability, relevance) weights and
#: surprise scale, restated for the reference evaluation.
VIRT_WEIGHTS = (0.5, 0.3, 0.2)
SURPRISE_SCALE = 3.0
#: Messages replayed by the codec and in-process queue-path probes, and
#: rows inserted by each arm of the capture probe.
PROBE_MESSAGES = 1_000
PROBE_ROWS = 2_000
#: Span names whose self time becomes ``<name>.self_us_per_op``.
LAYER_SPANS = (
    "db.write",
    "rules.evaluate",
    "queues.publish",
    "queues.propagate",
    "queues.consume_ack",
    "pubsub.publish",
    "core.virt",
)


def make_fixture(seed: int, rules: int, subscriptions: int) -> dict[str, Any]:
    """Rules, subscriptions and recipients as plain data.

    Half the rules anchor on an equality conjunct (``sensor = S AND
    value > lo``), half on a range conjunct (``value BETWEEN a AND b AND
    score > c``); with 500 sensors and 0.1-wide bands that is about 1.5
    matching rules per row.  Kept as tuples so the reference can
    evaluate them without the program's expression engine.
    """
    rng = random.Random(seed)
    rule_specs: list[tuple[Any, ...]] = []
    for index in range(rules):
        if index % 2 == 0:
            rule_specs.append(
                ("eq", rng.randrange(SENSORS), round(rng.uniform(0.0, 100.0), 3))
            )
        else:
            low = round(rng.uniform(0.0, 99.9), 3)
            rule_specs.append(
                ("range", low, round(low + 0.1, 3), round(rng.expovariate(0.5), 3))
            )
    subscription_specs = []
    for index in range(subscriptions):
        low = round(rng.uniform(0.0, 80.0), 2)
        subscription_specs.append(
            {
                "name": f"user{index}",
                "low": low,
                "high": round(low + 20.0, 2),
                "region": REGIONS[index % len(REGIONS)],
                "weight": round(rng.uniform(0.2, 1.0), 3),
                "threshold": round(rng.uniform(0.35, 0.6), 3),
            }
        )
    return {"rules": rule_specs, "subscriptions": subscription_specs}


def rule_condition(spec: tuple[Any, ...]) -> str:
    if spec[0] == "eq":
        return f"sensor = {spec[1]} AND value > {spec[2]}"
    return f"value BETWEEN {spec[1]} AND {spec[2]} AND score > {spec[3]}"


def make_rows(seed: int, count: int) -> list[dict[str, Any]]:
    rng = random.Random(seed)
    return [
        {
            "id": index,
            "sensor": rng.randrange(SENSORS),
            "region": rng.choice(REGIONS),
            "value": round(rng.uniform(0.0, 100.0), 4),
            "score": round(rng.expovariate(0.5), 4),
        }
        for index in range(count)
    ]


def reference_deliveries(
    fixture: dict[str, Any], rows: Sequence[dict[str, Any]]
) -> Counter:
    """Brute-force ``(row id, rule index, recipient index)`` deliveries.

    Every rule is tested against every row and every subscription
    against every match, column-wise so 2 000 rules x thousands of rows
    stays cheap; no index, no compiled expressions, no queues.
    """
    ids = np.array([row["id"] for row in rows], dtype=np.int64)
    sensor = np.array([row["sensor"] for row in rows], dtype=np.int64)
    value = np.array([row["value"] for row in rows], dtype=np.float64)
    score = np.array([row["score"] for row in rows], dtype=np.float64)
    region = np.array([REGIONS.index(row["region"]) for row in rows])
    # math.exp, as VirtScorer uses: numpy's exp may differ in the last bit.
    surprise = np.array(
        [1.0 - math.exp(-abs(row["score"]) / SURPRISE_SCALE) for row in rows]
    )
    matched_rows: list[np.ndarray] = []
    matched_rules: list[np.ndarray] = []
    for rule_index, spec in enumerate(fixture["rules"]):
        if spec[0] == "eq":
            mask = (sensor == spec[1]) & (value > spec[2])
        else:
            mask = (value >= spec[1]) & (value <= spec[2]) & (score > spec[3])
        hits = np.flatnonzero(mask)
        if len(hits):
            matched_rows.append(hits)
            matched_rules.append(np.full(len(hits), rule_index))
    expected: Counter = Counter()
    if not matched_rows:
        return expected
    row_index = np.concatenate(matched_rows)
    rule_index = np.concatenate(matched_rules)
    w_surprise, w_action, w_relevance = VIRT_WEIGHTS
    for recipient, sub in enumerate(fixture["subscriptions"]):
        accepted = (value[row_index] >= sub["low"]) & (value[row_index] <= sub["high"])
        relevance = np.where(
            region[row_index] == REGIONS.index(sub["region"]), 1.0, 0.0
        )
        virt = (
            w_surprise * surprise[row_index]
            + w_action * sub["weight"]
            + w_relevance * relevance
        )
        keep = np.flatnonzero(accepted & (virt >= sub["threshold"]))
        for position in keep:
            expected[
                (int(ids[row_index[position]]), int(rule_index[position]), recipient)
            ] += 1
    return expected


class _TracedShardBroker:
    """``ShardedQueueBroker`` with a ``shard.call`` span and a round-trip
    sample around each call the pipeline makes."""

    def __init__(self, broker: ShardedQueueBroker, tracer: Tracer) -> None:
        self.roundtrips_s: list[float] = []
        for name in ("publish", "publish_batch", "consume_batch", "ack_batch"):
            call = tracer.timed("shard.call", getattr(broker, name), self.roundtrips_s)
            setattr(self, name, call)


class Pipeline:
    """One program instance plus the driver-side shims around it."""

    def __init__(
        self,
        config: dict[str, Any],
        wal: dict[str, Any],
        fixture_seed: int,
        seed: int,
        workdir: str,
        tracer: Tracer,
    ) -> None:
        self.wal = wal
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        #: Worker processes holding the queues; 0 keeps them in process.
        self.shards: int = config.get("shards", 0)
        self.sharded = self.shards > 0
        self.fixture = make_fixture(
            fixture_seed, config["rules"], config["subscriptions"]
        )
        self.deliveries: list[tuple[int, int, int]] = []
        self.latencies_s: list[float] = []
        self.submitted: list[dict[str, Any]] = []
        self._due: dict[int, float] = {}
        self._sampled: list[Message] = []
        self._instance = 0
        self.coordinator: ShardCoordinator | None = None

    # -- inputs ----------------------------------------------------------------

    def generate(self, count: int) -> list[dict[str, Any]]:
        return make_rows(self.seed, count)

    def prepare(self, rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
        return rows

    # -- program set-up ----------------------------------------------------------

    def _database(self, name: str) -> Database:
        return Database(
            os.path.join(self._dir, name),
            sync_policy=self.wal["sync_policy"],
            group_commit_size=self.wal["group_commit_size"],
        )

    def setup(self, warmup: Sequence[dict[str, Any]]) -> None:
        """Build a fresh program instance and push the warm-up rows
        through it."""
        self._instance += 1
        self._dir = os.path.join(self.workdir, f"instance{self._instance}")
        os.makedirs(self._dir)
        tracer = self.tracer
        self.deliveries.clear()
        self.latencies_s.clear()
        self.submitted.clear()
        self._due.clear()
        self._sampled.clear()

        if self.sharded:
            # Fork the worker before this process grows: the child
            # inherits (and the kernel must track) every page we own.
            self.coordinator = ShardCoordinator(
                self.shards,
                data_dir=os.path.join(self._dir, "shards"),
                sync_policy=self.wal["sync_policy"],
                group_commit_size=self.wal["group_commit_size"],
            )
            self.shard_broker = ShardedQueueBroker(self.coordinator)
            self.shard_broker.create_queue(STAGING)
            self.shard_broker.create_queue(OUTBOUND)
            self.queues: Any = (
                _TracedShardBroker(self.shard_broker, tracer)
                if tracer.enabled
                else self.shard_broker
            )

        self.db = self._database("source.wal")
        self.db.execute(READINGS_DDL)
        self.out_db = self._database("outbound.wal")
        if not self.sharded:
            self.staging = QueueBroker(self.db)
            self.staging.create_queue(STAGING)
            self.outbound = QueueBroker(self.out_db, name="outbound")
            self.outbound.create_queue(OUTBOUND)
            self.queues = self.staging
            propagator = Propagator(self.staging, STAGING).add_link(
                PropagationLink(
                    name="to-outbound", broker=self.outbound, queue_name=OUTBOUND
                )
            )
            delivery = DeliveryManager(self.outbound, OUTBOUND)
            self._pump = tracer.wrap("queues.propagate", propagator.pump)
            self._process = tracer.wrap("queues.consume_ack", delivery.process_batch)

        self.engine = RuleEngine()
        action = tracer.wrap("queues.publish", EnqueueAction(self.queues, STAGING))
        for index, spec in enumerate(self.fixture["rules"]):
            self.engine.add(
                f"rule{index}",
                rule_condition(spec),
                action=action,
                event_types=("readings.insert",),
            )
        self.capture = TriggerCapture(self.db, ["readings"])
        self.capture.subscribe(tracer.wrap("rules.evaluate", self.engine.evaluate))

        self.pubsub = PubSubBroker(self.out_db)
        self.pubsub.create_topic(TOPIC)
        scorer = VirtScorer(self.db.clock, include_timeliness=False)
        self.filters: list[VirtFilter] = []
        for recipient, sub in enumerate(self.fixture["subscriptions"]):
            virt = VirtFilter(
                scorer,
                RecipientProfile(
                    sub["name"],
                    interests={"alert.*": sub["weight"]},
                    scope={"region": sub["region"]},
                ),
                threshold=sub["threshold"],
                deliver=self._make_deliver(recipient),
            )
            self.filters.append(virt)
            self.pubsub.subscribe(
                sub["name"],
                TOPIC,
                content_filter=f"value BETWEEN {sub['low']} AND {sub['high']}",
                callback=tracer.wrap("core.virt", virt.offer),
            )
        self._consume = tracer.wrap("pubsub.publish", self._publish_alert)
        if tracer.enabled:
            self._consume = self._sampling(self._consume)
        self._insert = tracer.wrap("db.write", self.db.insert_row)
        self.step(warmup, None)
        self._warmup_ops = len(warmup)
        self._wal_start = self.wal_counters() if tracer.enabled else {}

    def _sampling(self, consume: Any) -> Any:
        """Keep the first messages the consumer sees, for the probes."""
        sampled = self._sampled

        def consumer(message: Message) -> None:
            if len(sampled) < PROBE_MESSAGES:
                sampled.append(message)
            consume(message)

        return consumer

    def _make_deliver(self, recipient: int) -> Any:
        deliveries, latencies, due_of = self.deliveries, self.latencies_s, self._due

        def deliver(event: Event, _score: float) -> None:
            payload = event.payload
            row_id = payload["id"]
            deliveries.append((row_id, payload["rule"], recipient))
            due = due_of.get(row_id)
            if due is not None:
                latencies.append(clock() - due)

        return deliver

    def _publish_alert(self, message: Message) -> None:
        """Delivery consumer: turn the queued rule match back into an
        event and publish it to the alert topic."""
        context = message.payload["context"]
        self.pubsub.publish(
            TOPIC,
            Event(
                ALERT_TYPE,
                context["timestamp"],
                {
                    "id": context["id"],
                    "rule": int(message.payload["rule_id"][4:]),
                    "region": context["region"],
                    "value": context["value"],
                    "score": context["score"],
                },
            ),
        )

    # -- one driver iteration ------------------------------------------------------

    def step(
        self, rows: Sequence[dict[str, Any]], dues: Sequence[float] | None
    ) -> None:
        tracer, insert = self.tracer, self._insert
        if dues is not None:
            for row, due in zip(rows, dues):
                self._due[row["id"]] = due
        for row in rows:
            tracer.op_id = row["id"]
            insert("readings", row)
        tracer.op_id = None
        self.submitted.extend(rows)
        if self.sharded:
            self._forward_sharded()
            self._consume_sharded()
        else:
            while self._pump(batch=QUEUE_BATCH) == QUEUE_BATCH:
                pass
            while self._process(self._consume, batch=QUEUE_BATCH) == QUEUE_BATCH:
                pass

    def _forward_sharded(self) -> None:
        """What ``Propagator.pump`` does, over the sharded broker's
        batch calls."""
        tracer, queues = self.tracer, self.queues
        tracer.begin("queues.propagate")
        while True:
            messages = queues.consume_batch(STAGING, QUEUE_BATCH, principal="propagator")
            if messages:
                queues.publish_batch(
                    OUTBOUND,
                    [
                        Message(
                            payload=message.payload,
                            priority=message.priority,
                            headers={
                                **message.headers,
                                "propagated_from": message.queue,
                                "origin_message_id": message.message_id,
                            },
                        )
                        for message in messages
                    ],
                )
                queues.ack_batch(
                    STAGING,
                    [message.message_id for message in messages],
                    principal="propagator",
                )
            if len(messages) < QUEUE_BATCH:
                break
        tracer.end()

    def _consume_sharded(self) -> None:
        """What ``DeliveryManager.process_batch`` does on the success
        path, over the sharded broker's batch calls."""
        tracer, queues, consume = self.tracer, self.queues, self._consume
        tracer.begin("queues.consume_ack")
        while True:
            messages = queues.consume_batch(OUTBOUND, QUEUE_BATCH)
            for message in messages:
                consume(message)
            if messages:
                queues.ack_batch(
                    OUTBOUND, [message.message_id for message in messages]
                )
            if len(messages) < QUEUE_BATCH:
                break
        tracer.end()

    # -- results ----------------------------------------------------------------------

    def verify(self) -> tuple[int, list[str]]:
        """Failed ops and the reasons, against the brute-force reference."""
        problems: list[str] = []
        expected = reference_deliveries(self.fixture, self.submitted)
        observed = Counter(self.deliveries)
        wrong_rows = {key[0] for key in (expected - observed)} | {
            key[0] for key in (observed - expected)
        }
        if wrong_rows:
            problems.append(
                f"{len(wrong_rows)} rows with missing, extra or duplicated "
                f"deliveries (expected {sum(expected.values())}, "
                f"observed {sum(observed.values())})"
            )
        failed = len(wrong_rows)
        stored = self.db.query("SELECT COUNT(*) AS n FROM readings")[0]["n"]
        if stored != len(self.submitted):
            problems.append(f"readings holds {stored} rows, {len(self.submitted)} sent")
            failed += abs(stored - len(self.submitted))
        for name, depth in self._depths().items():
            if depth:
                problems.append(f"queue {name} still holds {depth} messages")
                failed += depth
        for database in (self.db, self.out_db):
            suppressed = database.obs.snapshot()["errors_suppressed"]
            if suppressed:
                problems.append(f"suppressed errors: {suppressed}")
                failed += sum(suppressed.values())
        return failed, problems

    def _depths(self) -> dict[str, int]:
        if self.sharded:
            return {
                name: self.shard_broker.depth(name) for name in (STAGING, OUTBOUND)
            }
        return {
            STAGING: self.staging.queue(STAGING).depth(),
            OUTBOUND: self.outbound.queue(OUTBOUND).depth(),
        }

    def wal_counters(self) -> dict[str, int]:
        """``wal.bytes/appends/fsyncs`` summed over every journal the
        pipeline writes (both databases, plus the shard worker's)."""
        snapshots = [self.db.obs.snapshot(), self.out_db.obs.snapshot()]
        if self.sharded:
            snapshots.extend(self.shard_broker.metrics_by_shard().values())
        return {
            key: sum(snap["counters"].get(f"wal.{key}", 0) for snap in snapshots)
            for key in ("bytes", "appends", "fsyncs")
        }

    def layer_metrics(self, traced_ops: int, total_ops: int) -> dict[str, float]:
        """Per-layer numbers of a traced run: span self time over the
        traced ops, journal traffic over the timed ops, and the
        program's own ``stats`` over the whole instance."""
        tracer = self.tracer
        self._traced_ops = traced_ops
        metrics = {
            f"{layer}.self_us_per_op": tracer.self_us(layer) / traced_ops
            for layer in LAYER_SPANS
        }
        timed_ops = total_ops - self._warmup_ops
        for key, value in self.wal_counters().items():
            metrics[f"db.wal.{key}_per_op"] = (value - self._wal_start[key]) / timed_ops
        metrics.update(self._layer_counts(total_ops))
        if self.sharded:
            roundtrips = self.queues.roundtrips_s
            metrics["shard.calls_per_op"] = tracer.calls.get("shard.call", 0) / traced_ops
            metrics["shard.queue_path.self_us_per_op"] = (
                tracer.self_us("shard.call") / traced_ops
            )
            metrics["shard.call.roundtrip_us_p50"] = percentile(roundtrips, 0.5) * 1e6
        return metrics

    def _layer_counts(self, ops: int) -> dict[str, float]:
        stats = self.engine.stats
        published = self.pubsub.stats["published"]
        accepted = self.pubsub.stats["delivered"]
        seen = sum(virt.stats["seen"] for virt in self.filters)
        delivered = sum(virt.stats["delivered"] for virt in self.filters)
        return {
            "rules.conditions_per_op": stats["conditions_evaluated"] / ops,
            "rules.matches_per_op": stats["matches"] / ops,
            "queues.messages_per_op": published / ops,
            "pubsub.deliveries_per_op": accepted / ops,
            "pubsub.match_share": accepted
            / max(1, published * len(self.fixture["subscriptions"])),
            "core.virt.delivered_share": delivered / max(1, seen),
        }

    # -- probes (traced runs only, after the timed phases) --------------------------------

    def probes(self) -> tuple[dict[str, float], int, list[str]]:
        metrics = {
            "capture.trigger.overhead_us_per_op": self.probe_capture_overhead(
                self.submitted[:PROBE_ROWS]
            )
        }
        problems: list[str] = []
        failed = 0
        if self.sharded:
            probe = self.probe_shard()
            messages_per_op = self.pubsub.stats["published"] / len(self.submitted)
            metrics["shard.codec.us_per_msg"] = probe["codec_us"]
            metrics["shard.wire.overhead_us_per_op"] = (
                self.tracer.self_us("shard.call") / self._traced_ops
                - probe["inproc_us_per_msg"] * messages_per_op
            )
        else:
            recovery = self.recover()
            metrics["db.recovery_s"] = recovery["recovery_s"]
            metrics["db.recovery.records_per_s"] = (
                recovery["records"] / recovery["recovery_s"]
            )
            if recovery["mismatches"]:
                failed = int(recovery["mismatches"])
                problems.append(
                    f"after crash and reopen {failed} rows or queued messages differ"
                )
        return metrics, failed, problems

    def probe_capture_overhead(self, rows: Sequence[dict[str, Any]]) -> float:
        """us per ``insert_row`` added by ``TriggerCapture`` with a
        no-op sink, against a bare table; chunks of rows alternate
        between the two databases so drift hits both arms alike."""
        arms = []
        for name, captured in (("probe-bare.wal", False), ("probe-capture.wal", True)):
            database = self._database(name)
            database.execute(READINGS_DDL)
            if captured:
                TriggerCapture(database, ["readings"]).subscribe(lambda event: None)
            arms.append(database)
        chunk = 100
        extra_s = []
        for offset in range(0, len(rows), chunk):
            elapsed = []
            for database in arms:
                start = clock()
                for row in rows[offset : offset + chunk]:
                    database.insert_row("readings", row)
                elapsed.append(clock() - start)
            extra_s.append((elapsed[1] - elapsed[0]) / chunk)
        # Median over chunks: a group-commit fsync or a collection
        # landing in one arm's chunk is an outlier, not the overhead.
        return statistics.median(extra_s) * 1e6

    def recover(self) -> dict[str, float]:
        """Crash and reopen the source database; the row count and both
        queue depths must survive.  In-process pipeline only."""
        expected_rows = len(self.submitted)
        self.db.wal.flush()
        self.out_db.wal.flush()
        self.db.simulate_crash()
        start = clock()
        reopened = self._database("source.wal")
        recovery_s = clock() - start
        reopened_out = self._database("outbound.wal")
        mismatches = 0
        rows = reopened.query("SELECT COUNT(*) AS n FROM readings")[0]["n"]
        mismatches += abs(rows - expected_rows)
        mismatches += QueueBroker(reopened).create_queue(STAGING).depth()
        mismatches += QueueBroker(reopened_out).create_queue(OUTBOUND).depth()
        return {
            "recovery_s": recovery_s,
            "records": float(len(reopened.wal)),
            "mismatches": float(mismatches),
        }

    def probe_shard(self) -> dict[str, float]:
        """Two probes over the run's own messages: the frame codec
        alone, and the same queue calls served by an in-process
        ``QueueBroker`` (what the queue path costs without the wire)."""
        messages = [
            Message(payload=message.payload, headers=dict(message.headers))
            for message in self._sampled
        ]
        if not messages:
            return {"codec_us": 0.0, "inproc_us_per_msg": 0.0}
        consumed = [
            wire_to_consumed(
                {**consumed_to_wire(message), "queue": STAGING, "message_id": index}
            )
            for index, message in enumerate(messages)
        ]
        start = clock()
        for message, locked in zip(messages, consumed):
            wire_to_message(json.loads(json.dumps(message_to_wire(message))))
            wire_to_consumed(json.loads(json.dumps(consumed_to_wire(locked))))
        codec_us = (clock() - start) / len(messages) * 1e6

        database = self._database("probe-queues.wal")
        broker = QueueBroker(database)
        broker.create_queue(STAGING)
        broker.create_queue(OUTBOUND)
        start = clock()
        for offset in range(0, len(messages), 96):
            for message in messages[offset : offset + 96]:
                broker.publish(STAGING, message)
            taken = broker.consume_batch(STAGING, QUEUE_BATCH)
            broker.publish_batch(
                OUTBOUND, [Message(payload=m.payload, headers=m.headers) for m in taken]
            )
            broker.ack_batch(STAGING, [m.message_id for m in taken])
            taken = broker.consume_batch(OUTBOUND, QUEUE_BATCH)
            broker.ack_batch(OUTBOUND, [m.message_id for m in taken])
        inproc_us = (clock() - start) / len(messages) * 1e6
        return {"codec_us": codec_us, "inproc_us_per_msg": inproc_us}

    def teardown(self) -> None:
        if self.coordinator is not None:
            self.coordinator.stop()
            self.coordinator = None
