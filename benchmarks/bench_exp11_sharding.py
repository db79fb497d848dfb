"""EXP-11 — Sharded multi-process scale-out (paper §2.2.a "millions of
simultaneous users").

Claims probed:

* throughput of the batched queue path scales with worker count when
  keys spread across shards (the point of hash partitioning) — measured
  as a 1/2/4/8-shard sweep against the 1-shard batched baseline;
* under Zipf-skewed per-user traffic (the realistic "million simulated
  users" shape), consistent hashing still bounds per-shard imbalance,
  and the fleet acks exactly what it enqueued (exactly-once
  accounting across process boundaries).

Scale-out on a box with fewer cores than shards cannot show real
speedup — every row records ``cores`` so the scaling bars (EXPERIMENTS.md,
EXP-11) are applied only where the hardware can express them.

Run standalone:  python benchmarks/bench_exp11_sharding.py [--quick]
"""

from __future__ import annotations

import os
import random
import sys
import time

try:
    from benchmarks.reporting import print_table
except ImportError:
    from reporting import print_table

from repro.queues.message import Message
from repro.shard import ShardCoordinator, ShardedQueueBroker

#: Queues per shard in the sweep — enough keys that the hash spreads
#: work over every worker.
QUEUES_PER_SHARD = 4
BATCH = 64


def run_shard_count(
    shards: int, n_messages: int, *, payload_bytes: int = 64
) -> dict:
    """Publish/consume/ack ``n_messages`` over a ``shards``-worker
    fleet, all traffic on the batched paths; returns throughput."""
    payload = "x" * payload_bytes
    with ShardCoordinator(shards, group_commit_size=BATCH) as coordinator:
        broker = ShardedQueueBroker(coordinator)
        queue_names = [f"stream_{i}" for i in range(QUEUES_PER_SHARD * shards)]
        for name in queue_names:
            broker.create_queue(name)
        started = time.perf_counter()
        for start in range(0, n_messages, BATCH):
            entries = [
                (queue_names[(start + j) % len(queue_names)],
                 Message(payload=payload))
                for j in range(min(BATCH, n_messages - start))
            ]
            broker.publish_many(entries)
        publish_elapsed = time.perf_counter() - started

        started = time.perf_counter()
        consumed = 0
        for name in queue_names:
            while True:
                messages = broker.consume_batch(name, BATCH)
                if not messages:
                    break
                broker.ack_batch(name, [m.message_id for m in messages])
                consumed += len(messages)
        consume_elapsed = time.perf_counter() - started
        assert consumed == n_messages, (consumed, n_messages)
    total = publish_elapsed + consume_elapsed
    return {
        "shards": shards,
        "messages": n_messages,
        "publish_per_s": n_messages / publish_elapsed,
        "consume_per_s": n_messages / consume_elapsed,
        "msgs_per_s": n_messages / total,
        "cores": os.cpu_count() or 1,
    }


def run_scaling_sweep(
    shard_counts: tuple[int, ...], n_messages: int
) -> list[dict]:
    """The EXP-11a sweep; adds ``speedup_vs_1`` relative to the
    1-shard batched baseline (the first entry must be 1)."""
    rows = [run_shard_count(shards, n_messages) for shards in shard_counts]
    baseline = rows[0]["msgs_per_s"]
    for row in rows:
        row["speedup_vs_1"] = row["msgs_per_s"] / baseline
    return rows


def _zipf_user(rng: random.Random, n_users: int, s: float = 1.2) -> int:
    """Draw a user id with a Zipf(s) popularity profile via inverse
    transform over the truncated harmonic weights (no numpy in the
    container; this is exact, if unglamorous)."""
    # Inverse-CDF by bisection on H(k)/H(n) using the integral
    # approximation k^(1-s); exact enough for a load shape.
    u = rng.random()
    exponent = 1.0 - s
    h_n = (n_users ** exponent - 1.0) / exponent
    k = (u * h_n * exponent + 1.0) ** (1.0 / exponent)
    return max(1, min(n_users, int(k)))


def run_zipf_soak(
    *,
    shards: int,
    n_users: int,
    n_messages: int,
    n_queues: int | None = None,
    seed: int = 11,
) -> dict:
    """EXP-11b: Zipf-skewed "simulated users" soak.

    Each message belongs to a user drawn Zipf(1.2) from ``n_users``;
    users map onto ``n_queues`` per-user-group queues by modulo, and
    queues map onto shards by the consistent hash.  Reports per-shard
    enqueue share and depth imbalance, plus exactly-once accounting
    (fleet-wide acked == published, per worker counters).
    """
    if n_queues is None:
        n_queues = 8 * shards
    rng = random.Random(seed)
    with ShardCoordinator(shards, group_commit_size=BATCH) as coordinator:
        broker = ShardedQueueBroker(coordinator)
        queue_names = [f"users_{i}" for i in range(n_queues)]
        placement = {name: broker.create_queue(name) for name in queue_names}

        started = time.perf_counter()
        published = 0
        for start in range(0, n_messages, BATCH):
            entries = []
            for _ in range(min(BATCH, n_messages - start)):
                user = _zipf_user(rng, n_users)
                entries.append(
                    (queue_names[user % n_queues],
                     Message(payload={"user": user}))
                )
            broker.publish_many(entries)
            published += len(entries)
        publish_elapsed = time.perf_counter() - started

        per_shard_enqueued: dict[int, int] = {s: 0 for s in range(shards)}
        per_shard_depth: dict[int, int] = {s: 0 for s in range(shards)}
        for name, depth in (
            (name, broker.depth(name)) for name in queue_names
        ):
            per_shard_depth[placement[name]] += depth
            per_shard_enqueued[placement[name]] += depth

        acked = 0
        for name in queue_names:
            while True:
                messages = broker.consume_batch(name, BATCH)
                if not messages:
                    break
                acked += broker.ack_batch(
                    name, [m.message_id for m in messages]
                )

        # Exactly-once accounting straight from the workers' own
        # registries, not the coordinator's bookkeeping.
        merged = coordinator.metrics()
        fleet_enqueued = sum(
            value
            for key, value in merged["counters"].items()
            if key.startswith("queue.enqueued{") and "shard=" not in key
        )
        fleet_acked = sum(
            value
            for key, value in merged["counters"].items()
            if key.startswith("queue.acked{") and "shard=" not in key
        )
    mean_depth = sum(per_shard_depth.values()) / shards
    imbalance = (
        max(per_shard_depth.values()) / mean_depth if mean_depth else 1.0
    )
    return {
        "shards": shards,
        "users": n_users,
        "messages": published,
        "queues": n_queues,
        "publish_per_s": published / publish_elapsed,
        "per_shard_depth": dict(sorted(per_shard_depth.items())),
        "depth_imbalance": imbalance,
        "fleet_enqueued": fleet_enqueued,
        "fleet_acked": fleet_acked,
        "exactly_once": fleet_enqueued == fleet_acked == published,
        "cores": os.cpu_count() or 1,
    }


def test_exp11_shape():
    """Small end-to-end run pinning the claims the sweep reports on:
    every message survives the fleet roundtrip, speedups are computed
    against the 1-shard arm, and the Zipf soak accounts exactly-once
    with bounded imbalance.  Throughput *ordering* is deliberately not
    asserted — it depends on core count."""
    rows = run_scaling_sweep((1, 2), 256)
    assert [row["shards"] for row in rows] == [1, 2]
    assert rows[0]["speedup_vs_1"] == 1.0
    assert all(row["messages"] == 256 for row in rows)
    assert all(row["msgs_per_s"] > 0 for row in rows)

    soak = run_zipf_soak(shards=2, n_users=5_000, n_messages=256)
    assert soak["exactly_once"], (soak["fleet_enqueued"],
                                  soak["fleet_acked"], soak["messages"])
    assert sum(soak["per_shard_depth"].values()) == 256
    assert soak["depth_imbalance"] <= 2.0
    # Seeded draw: the same seed must land the same placement.
    again = run_zipf_soak(shards=2, n_users=5_000, n_messages=256)
    assert again["per_shard_depth"] == soak["per_shard_depth"]


def main(quick: bool = False) -> None:
    if quick:
        shard_counts: tuple[int, ...] = (1, 2)
        n_messages = 512
        soak = dict(shards=2, n_users=10_000, n_messages=512)
    else:
        shard_counts = (1, 2, 4, 8)
        n_messages = 8_192
        soak = dict(shards=4, n_users=1_000_000, n_messages=16_384)

    rows = run_scaling_sweep(shard_counts, n_messages)
    print_table(
        f"EXP-11a: shard-count sweep ({n_messages} messages, "
        f"batched publish/consume/ack, {os.cpu_count()} cores)",
        [
            {
                "shards": row["shards"],
                "msgs_per_s": row["msgs_per_s"],
                "publish_per_s": row["publish_per_s"],
                "consume_per_s": row["consume_per_s"],
                "speedup_vs_1": row["speedup_vs_1"],
            }
            for row in rows
        ],
    )

    soak_row = run_zipf_soak(**soak)
    print_table(
        f"EXP-11b: Zipf soak ({soak_row['users']:,} simulated users, "
        f"{soak_row['messages']} messages, {soak_row['shards']} shards)",
        [
            {
                "publish_per_s": soak_row["publish_per_s"],
                "depth_imbalance": soak_row["depth_imbalance"],
                "exactly_once": soak_row["exactly_once"],
                "per_shard_depth": str(soak_row["per_shard_depth"]),
            }
        ],
    )


if __name__ == "__main__":
    main(quick="--quick" in sys.argv)
