"""The ``python -m repro stats`` workload and report renderer.

Runs a compact end-to-end pipeline — trigger capture → rules → staging
queue → cross-broker propagation → reliable delivery, with pub/sub and
a CQ stream riding along — entirely on a :class:`SimulatedClock`, then
renders one observability report: the metrics snapshots of both
databases and a sample end-to-end trace reconstructed from the
:class:`repro.obs.trace.TraceLog`.  Every count appears once, as a
registry counter; the components' ``.stats`` are views of the same
counters and are not printed again.

With ``faults=True`` the workload arms the failure-boundary failpoints
(consumer crashes, trigger-drop failures) so every former
silent-swallow site shows up in ``errors_suppressed`` — the point of
the exercise is that nothing fails invisibly.
"""

from __future__ import annotations

from typing import Any

from repro.clock import SimulatedClock
from repro.db.database import Database
from repro.faults import (
    CAPTURE_DROP_TRIGGER,
    DELIVERY_CONSUMER,
    PUBSUB_CONSUMER,
    FaultInjector,
    every,
    on_hit,
    raise_fault,
)
from repro.obs.trace import TraceLog, set_default_trace_log

#: Hop order of a fully delivered message, used to pick the sample trace.
_FULL_PATH_STAGES = ("capture", "rule.match", "queue.enqueue", "delivery.consumed")


def run_stats_workload(
    *, events: int = 60, faults: bool = False
) -> dict[str, Any]:
    """Run the demonstration pipeline and return the report dict."""
    from repro.capture.notification_capture import QueryNotificationCapture
    from repro.capture.trigger_capture import TriggerCapture
    from repro.cq.stream import Stream
    from repro.cq.window import TumblingWindow
    from repro.pubsub.broker import PubSubBroker
    from repro.queues.broker import QueueBroker
    from repro.queues.propagation import PropagationLink, Propagator
    from repro.queues.queue_table import queue_table_name
    from repro.pubsub.delivery import DeliveryManager
    from repro.rules.actions import EnqueueAction
    from repro.rules.engine import RuleEngine

    clock = SimulatedClock(start=1_000.0)
    trace_log = TraceLog(capacity=16_384)
    previous_log = set_default_trace_log(trace_log)
    injector = FaultInjector(seed=7) if faults else None
    try:
        db = Database(clock=clock, sync_policy="commit", faults=injector)
        db.execute(
            "CREATE TABLE orders ("
            " order_id INT PRIMARY KEY,"
            " amount REAL NOT NULL,"
            " region TEXT)"
        )
        broker = QueueBroker(db)
        broker.create_queue("matched")

        engine = RuleEngine(metrics=db.obs)
        engine.add(
            "hot-order",
            "amount > 50",
            action=EnqueueAction(broker, "matched", priority_key="amount"),
            event_types=("orders.insert",),
        )

        capture = TriggerCapture(db, ["orders"], name="orders-capture")
        capture.subscribe(engine.evaluate)

        # CQ operators and pub/sub ride on the same captured stream.
        stream = Stream("orders-changes").bind_metrics(db.obs)
        capture.subscribe(stream.push)
        # An event-time window over the captured stream: trigger capture
        # stamps commit times, which the out-of-order pushes below
        # deliberately violate so the lateness accounting
        # (cq.late_dropped, cq.lateness) shows up in the report.
        window = TumblingWindow(
            stream, 1.0, allowed_lateness=0.5
        ).bind_metrics(db.obs)
        window.subscribe(lambda event: None)
        pubsub = PubSubBroker(db)
        pubsub.create_topic("orders")
        pubsub.subscribe("dashboard", "orders", durable=True)
        capture.subscribe(lambda event: pubsub.publish("orders", event))

        notification = QueryNotificationCapture(
            db, "SELECT * FROM orders WHERE amount > 90", name="big-orders"
        )

        # Second broker: the propagation destination plus its delivery
        # loop — the §2.2.d "local consumption elsewhere" leg.
        remote_db = Database(clock=clock, sync_policy="commit", faults=injector)
        remote = QueueBroker(remote_db, name="remote")
        remote.create_queue("remote")
        propagator = Propagator(
            broker, "matched", dead_letter_queue="matched_dlq"
        ).add_link(
            PropagationLink(name="to-remote", broker=remote, queue_name="remote")
        )
        delivery = DeliveryManager(
            remote,
            "remote",
            ack_timeout=5.0,
            max_attempts=3,
            dead_letter_queue="remote_dlq",
        )

        if injector is not None:
            # A consumer that crashes on every 5th delivery: failures
            # flow through nack → retry → (occasionally) dead-letter.
            injector.arm(
                DELIVERY_CONSUMER, raise_fault("injected consumer crash"),
                policy=every(5),
            )

        for i in range(events):
            db.execute(
                "INSERT INTO orders (order_id, amount, region) "
                f"VALUES ({i}, {10 + (i * 7) % 100}, "
                f"'{'west' if i % 2 else 'east'}')"
            )
            if i % 20 == 19:
                # Continuous analytics beside the writes: the first one
                # builds the columnar projection, later ones append to it
                # (columnar.* gauges in the report).
                db.query(
                    "SELECT region, count(*), sum(amount) FROM orders"
                    " GROUP BY region"
                )
            clock.advance(0.05)

        # Out-of-order tail: a few stragglers whose event time is far
        # behind the stream's watermark (beyond allowed_lateness), so
        # the window's late-drop path runs, then a terminal watermark
        # punctuation that closes the remaining panes without data.
        from repro.events import Event as _Event

        for i in range(3):
            stream.push(
                _Event(
                    "orders.insert",
                    1_000.0 + i * 0.01,  # seconds behind the watermark
                    {"order_id": 10_000 + i, "amount": 5.0},
                    source="late-replay",
                )
            )
        stream.punctuate(clock.now() + 10.0)

        consumed = 0
        for _ in range(events + 10):  # drain: propagation + retries
            propagator.pump()
            consumed += delivery.process_batch(lambda message: None, batch=16)
            # Depth by state on the live queue table: consumption UPDATEs
            # and DELETEs its rows, so this projection is patched.
            remote_db.query(
                f"SELECT state, count(*) FROM {queue_table_name('remote')}"
                " GROUP BY state"
            )
            clock.advance(1.0)
            if broker.queue("matched").depth() == 0 and (
                remote.queue("remote").depth() == 0
            ):
                break

        # Activate the durable pub/sub subscriber; under fault injection
        # the first activation crashes (counted, message kept) and the
        # second drains cleanly.
        if injector is not None:
            injector.arm(
                PUBSUB_CONSUMER, raise_fault("injected subscriber crash"),
                policy=on_hit(1), max_fires=1,
            )
            try:
                pubsub.attach_listener("dashboard", lambda event: None)
            except Exception:
                pubsub.detach_listener("dashboard")
        pubsub.attach_listener("dashboard", lambda event: None)

        if injector is not None:
            # Teardown failures: every trigger drop raises; close() must
            # survive and account for each suppressed failure.
            injector.arm(CAPTURE_DROP_TRIGGER, raise_fault("injected drop failure"))
        capture.close()
        notification.close()

        return {
            "events": events,
            "consumed": consumed,
            "local": db.metrics(),
            "remote": remote_db.metrics(),
            "trace": _sample_trace(trace_log),
            "trace_count": len(trace_log.trace_ids()),
        }
    finally:
        set_default_trace_log(previous_log)


def run_sharded_stats_workload(
    *, shards: int = 2, events: int = 200
) -> dict[str, Any]:
    """Run a queue workload over a multi-process shard fleet and fold
    every worker's metrics snapshot into one report.

    This is the multi-process face of ``python -m repro stats``: the
    registries live in the worker processes, ship their snapshots over
    the control channel, and :func:`repro.obs.metrics.merge_snapshots`
    folds them — fleet-wide counters summed, per-shard ``queue.depth``
    retained under ``shard=<id>`` keys.
    """
    from repro.obs.metrics import merge_snapshots
    from repro.queues.message import Message
    from repro.shard import ShardCoordinator, ShardedQueueBroker, ShardSupervisor

    with ShardCoordinator(shards, replication_factor=1) as coordinator:
        supervisor = ShardSupervisor(coordinator, heartbeat_timeout=2.0)
        broker = ShardedQueueBroker(coordinator)
        queue_names = [f"stream_{i}" for i in range(max(4, shards * 2))]
        placement = {
            name: broker.create_queue(name) for name in queue_names
        }
        batch = 32
        for start in range(0, events, batch):
            entries = [
                (queue_names[(start + j) % len(queue_names)],
                 Message(payload={"seq": start + j}))
                for j in range(min(batch, events - start))
            ]
            broker.publish_many(entries)
        consumed = 0
        for name in queue_names:
            messages = broker.consume_batch(name, events)
            if messages:
                broker.ack_batch(name, [m.message_id for m in messages])
            consumed += len(messages)
        # Exercise the self-healing path for the demo: kill shard 0's
        # primary and let the supervisor promote its replica.
        coordinator.worker(0).kill()
        supervisor.run_until_healthy(deadline=15.0)
        per_shard = coordinator.metrics_by_shard()
        merged = merge_snapshots(per_shard, label_name="shard")
        return {
            "shards": shards,
            "events": events,
            "consumed": consumed,
            "placement": placement,
            "queues": broker.stats(),
            "fleet_health": {
                str(shard): health
                for shard, health in supervisor.fleet_health().items()
            },
            "per_shard_counters": {
                shard: {
                    key: value
                    for key, value in snapshot["counters"].items()
                    if value and key.startswith("queue.")
                }
                for shard, snapshot in per_shard.items()
            },
            "merged": merged,
        }


def format_sharded_report(report: dict[str, Any]) -> str:
    """Human-readable rendering of the sharded stats report."""
    lines = [
        f"sharded workload: {report['events']} messages over "
        f"{len(report['placement'])} queues on {report['shards']} shards, "
        f"{report['consumed']} consumed"
    ]
    lines.append("")
    lines.append("queue placement (consistent hash)")
    lines.append("-" * 33)
    for name, shard in sorted(report["placement"].items()):
        lines.append(f"  {name:<24} shard {shard}")
    health = report.get("fleet_health")
    if health:
        lines.append("")
        lines.append("fleet health (supervised, replicated)")
        lines.append("-" * 37)
        for shard, state in sorted(health.items()):
            lag = state["replication"]
            lines.append(
                f"  shard {shard}  role={state['role']:<8}"
                f" replicas={state['replicas_alive']}/{state['replicas']}"
                f" lag_ops={lag['lag_ops']}"
                f" restarts={state['restarts']}"
                f" promotions={state['promotions']}"
                f" breaker={state['breaker']}"
            )
    lines.append("")
    lines.append("per-shard queue counters")
    lines.append("-" * 24)
    for shard, counters in sorted(report["per_shard_counters"].items()):
        for key, value in sorted(counters.items()):
            lines.append(f"  shard {shard}  {key:<36} {value}")
    merged = report["merged"]
    lines.append("")
    lines.append("fleet-wide counters (merged across processes)")
    lines.append("-" * 45)
    for key, value in sorted(merged["counters"].items()):
        if value and "{" not in key:
            lines.append(f"  {key:<44} {value}")
    depth_keys = {
        key: value
        for key, value in sorted(merged["gauges"].items())
        if key.startswith("queue.depth") and "shard=" in key
    }
    if depth_keys:
        lines.append("")
        lines.append("per-shard depth gauges")
        lines.append("-" * 22)
        for key, value in depth_keys.items():
            lines.append(f"  {key:<44} {value}")
    return "\n".join(lines)


def _sample_trace(log: TraceLog) -> dict[str, Any] | None:
    """The first trace that travelled the whole capture→delivery path."""
    best: dict[str, Any] | None = None
    for trace_id in log.trace_ids():
        hops = log.lookup(trace_id)
        stages = {hop.stage for hop in hops}
        rendered = {
            "trace_id": trace_id,
            "hops": [
                {"stage": hop.stage, "ts": hop.ts, **hop.detail} for hop in hops
            ],
        }
        if all(stage in stages for stage in _FULL_PATH_STAGES):
            return rendered
        if best is None or len(hops) > len(best["hops"]):
            best = rendered
    return best


def format_report(report: dict[str, Any]) -> str:
    """Human-readable rendering (the non-``--json`` CLI output)."""
    lines: list[str] = []

    def section(title: str) -> None:
        lines.append("")
        lines.append(title)
        lines.append("-" * len(title))

    lines.append(
        f"workload: {report['events']} events captured, "
        f"{report['consumed']} delivered, "
        f"{report['trace_count']} traces recorded"
    )
    for side in ("local", "remote"):
        snapshot = report[side]
        section(f"{side} database counters")
        for key, value in sorted(snapshot["counters"].items()):
            if value:
                lines.append(f"  {key:<44} {value}")
        gauges = {k: v for k, v in sorted(snapshot["gauges"].items())}
        if gauges:
            section(f"{side} database gauges")
            for key, value in gauges.items():
                lines.append(f"  {key:<44} {value}")
        histograms = snapshot.get("histograms", {})
        live = {k: h for k, h in sorted(histograms.items()) if h["count"]}
        if live:
            section(f"{side} database histograms")
            for key, h in live.items():
                lines.append(
                    f"  {key:<44} count={h['count']} mean={h['mean']:.4f} "
                    f"p50={h['p50']:.4f} p95={h['p95']:.4f} p99={h['p99']:.4f}"
                )
        if snapshot.get("errors_suppressed"):
            section(f"{side} suppressed errors")
            for stage, count in sorted(snapshot["errors_suppressed"].items()):
                last = snapshot["last_errors"].get(stage, "")
                lines.append(f"  {stage:<44} {count}  (last: {last})")

    trace = report.get("trace")
    if trace:
        section(f"sample trace {trace['trace_id']}")
        for hop in trace["hops"]:
            detail = {
                k: v for k, v in hop.items() if k not in ("stage", "ts")
            }
            lines.append(
                f"  {hop['ts']:>10.2f}  {hop['stage']:<22} "
                + ", ".join(f"{k}={v}" for k, v in detail.items())
            )
    return "\n".join(lines)
