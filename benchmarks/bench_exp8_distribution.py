"""EXP-8 — Message distribution (paper §2.2.d.ii).

Claims probed:

* forwarding throughput falls roughly linearly with fan-out (each extra
  destination is an extra delivery);
* multi-hop routing cost grows with path length;
* link failures reroute without losing deliveries; a partition is
  reported, and restored links heal.

Run standalone:  python benchmarks/bench_exp8_distribution.py
"""

from __future__ import annotations

import time

import pytest

try:
    from benchmarks.reporting import print_table
except ImportError:
    from reporting import print_table

from repro.clock import SimulatedClock
from repro.db import Database
from repro.errors import RoutingError
from repro.events import Event
from repro.pubsub import PubSubBroker, Router, StagingTopology
from repro.queues import PropagationLink, Propagator, QueueBroker

N_MESSAGES = 400


def make_broker(clock, name="b") -> QueueBroker:
    return QueueBroker(Database(clock=clock, sync_policy="none"), name=name)


def run_fanout(fanout: int, n: int = N_MESSAGES) -> dict:
    clock = SimulatedClock()
    source = make_broker(clock, "source")
    source.create_queue("outbox")
    propagator = Propagator(source, "outbox")
    destinations = []
    for i in range(fanout):
        destination = make_broker(clock, f"dest{i}")
        destination.create_queue("inbox")
        destinations.append(destination)
        propagator.add_link(
            PropagationLink(f"link{i}", broker=destination, queue_name="inbox")
        )
    for i in range(n):
        source.publish("outbox", {"n": i})
    started = time.perf_counter()
    while propagator.pump(batch=100):
        pass
    elapsed = time.perf_counter() - started
    delivered = sum(d.queue("inbox").depth() for d in destinations)
    return {
        "fanout": fanout,
        "msgs_per_s": n / elapsed,
        "deliveries": delivered,
        "deliveries_per_s": delivered / elapsed,
    }


def chain_topology(hops: int, clock) -> StagingTopology:
    topology = StagingTopology()
    names = [f"area{i}" for i in range(hops + 1)]
    for name in names:
        topology.add_area(name, PubSubBroker(Database(clock=clock), name=name))
    for a, b in zip(names, names[1:]):
        topology.add_link(a, b, latency=1.0)
    return topology


def run_hops(hops: int, n: int = 200) -> dict:
    clock = SimulatedClock()
    topology = chain_topology(hops, clock)
    router = Router(topology)
    destination = topology.broker(f"area{hops}")
    destination.create_topic("t")
    received = []
    destination.subscribe("sink", "t", callback=received.append)
    started = time.perf_counter()
    for i in range(n):
        router.route(
            Event("e", float(i), {"n": i}),
            source="area0", dest=f"area{hops}", topic="t",
        )
    elapsed = time.perf_counter() - started
    return {
        "hops": hops,
        "msgs_per_s": n / elapsed,
        "received": len(received),
        "total_hops": router.stats["hops"],
    }


def run_experiment(
    fanouts: tuple[int, ...] = (1, 2, 4, 8),
    hop_counts: tuple[int, ...] = (1, 2, 4, 8),
    *,
    n: int = N_MESSAGES,
) -> tuple[list[dict], list[dict]]:
    fanout_rows = [run_fanout(f, n=n) for f in fanouts]
    hop_rows = [run_hops(h, n=min(n, 200)) for h in hop_counts]
    return fanout_rows, hop_rows


# -- pytest-benchmark -------------------------------------------------------------


def test_exp8_single_forward(benchmark):
    clock = SimulatedClock()
    source = make_broker(clock, "source")
    source.create_queue("outbox")
    destination = make_broker(clock, "dest")
    destination.create_queue("inbox")
    propagator = Propagator(source, "outbox").add_link(
        PropagationLink("l", broker=destination, queue_name="inbox")
    )

    def cycle():
        source.publish("outbox", {"x": 1})
        propagator.pump(batch=1)

    benchmark(cycle)


def test_exp8_route_3_hops(benchmark):
    clock = SimulatedClock()
    topology = chain_topology(3, clock)
    router = Router(topology)
    topology.broker("area3").create_topic("t")
    counter = iter(range(10**9))
    benchmark(
        lambda: router.route(
            Event("e", float(next(counter)), {}),
            source="area0", dest="area3", topic="t",
        )
    )


def test_exp8_shape():
    fanout_rows, hop_rows = run_experiment()
    by_fanout = {row["fanout"]: row for row in fanout_rows}
    # All deliveries arrive: fanout × N.
    for fanout, row in by_fanout.items():
        assert row["deliveries"] == fanout * N_MESSAGES
    # Throughput falls with fan-out (monotone within 20% tolerance).
    assert by_fanout[8]["msgs_per_s"] < by_fanout[1]["msgs_per_s"]
    # Per-delivery rate stays in the same ballpark (work scales, not waste).
    assert (
        by_fanout[8]["deliveries_per_s"] > by_fanout[1]["deliveries_per_s"] / 3
    )
    by_hops = {row["hops"]: row for row in hop_rows}
    assert all(row["received"] == 200 for row in hop_rows)
    assert by_hops[8]["msgs_per_s"] < by_hops[1]["msgs_per_s"]


def test_exp8_failure_injection_no_loss():
    """Kill the primary path mid-stream: everything still arrives."""
    clock = SimulatedClock()
    topology = StagingTopology()
    for name in ("src", "mid_a", "mid_b", "dst"):
        topology.add_area(name, PubSubBroker(Database(clock=clock), name=name))
    topology.add_link("src", "mid_a", latency=1.0)
    topology.add_link("mid_a", "dst", latency=1.0)
    topology.add_link("src", "mid_b", latency=5.0)
    topology.add_link("mid_b", "dst", latency=5.0)
    router = Router(topology)
    destination = topology.broker("dst")
    destination.create_topic("t")
    received = []
    destination.subscribe("sink", "t", callback=received.append)

    for i in range(100):
        if i == 50:
            topology.fail_link("mid_a", "dst")
        router.route(Event("e", float(i), {"n": i}),
                     source="src", dest="dst", topic="t")
    assert len(received) == 100
    # Messages after the failure used the backup path.
    assert received[99]["route_path"] == ["src", "mid_b", "dst"]

    # Full partition is an error, not silence.
    topology.fail_link("mid_b", "dst")
    with pytest.raises(RoutingError):
        router.route(Event("e", 200.0, {}), source="src", dest="dst", topic="t")
    # Healing restores the cheap path.
    topology.restore_link("mid_a", "dst")
    info = router.route(Event("e", 201.0, {}), source="src", dest="dst", topic="t")
    assert info["path"] == ["src", "mid_a", "dst"]


def main(quick: bool = False) -> None:
    if quick:
        fanout_rows, hop_rows = run_experiment((1, 4), (1, 4), n=100)
    else:
        fanout_rows, hop_rows = run_experiment()
    print_table(
        f"EXP-8a: propagation fan-out ({100 if quick else N_MESSAGES} messages)",
        fanout_rows,
        ["fanout", "msgs_per_s", "deliveries", "deliveries_per_s"],
    )
    print_table(
        f"EXP-8b: multi-hop routing ({100 if quick else 200} messages per point)",
        hop_rows,
        ["hops", "msgs_per_s", "received", "total_hops"],
    )


if __name__ == "__main__":
    main()
