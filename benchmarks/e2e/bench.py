#!/usr/bin/env python3
"""EXP-0: the end-to-end benchmark with a per-layer time budget.

One run (what the benchmark driver invokes, one process, one workload)::

    python3 benchmarks/e2e/bench.py --workload pipeline_inproc --seed 7 \
        --seconds 12 --trace 0

prints every metric by name and unit, checks the program's outputs
against a reference, and ends with one JSON line.  ``--trace 1`` makes
the separate traced run that yields the per-layer numbers.

A set of runs (no ``--workload``, or ``--repeats N``) runs each workload
N times, every run in a fresh subprocess with its own seed, and reports
medians and quartiles; ``--compare A.json B.json`` judges two such sets.
See README.md beside this file.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from harness import (  # noqa: E402
    CapacityResult,
    GcMonitor,
    Tracer,
    clock,
    percentile,
    quartiles,
    run_capacity,
    run_paced,
)

OUT_DIR = os.path.join(HERE, "out")
#: The capacity phase stops, inputs unspent, after this many times its
#: scheduled length.
CAPACITY_OVERRUN_FACTOR = 2.5
P99_MIN_SAMPLES = 1_000
#: The paced phase's latency samples are cut into this many windows (in
#: time order) for the quiet-quartile statistics.
LATENCY_WINDOWS = 12


def load_spec() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_config(smoke: bool) -> dict[str, Any]:
    with open(os.path.join(HERE, "config.json")) as handle:
        config = json.load(handle)
    overrides = config.pop("smoke")
    if smoke:
        for name, values in overrides.pop("workloads").items():
            config["workloads"][name].update(values)
        config["default_seconds"] = overrides.pop("seconds")
        config.update(overrides)
    return config


def make_workload(
    name: str, config: dict[str, Any], seed: int, workdir: str, tracer: Tracer
) -> Any:
    settings = config["workloads"][name]
    if name in ("pipeline_inproc", "pipeline_sharded"):
        from pipeline import Pipeline

        return Pipeline(
            settings,
            config["wal"],
            config["fixture_seed"],
            seed,
            workdir,
            tracer,
        )
    if name == "stream_cq":
        from stream_cq import StreamCq

        return StreamCq(seed, tracer)
    from sql_mixed import SqlMixed

    return SqlMixed(settings, config["wal"], seed, workdir, tracer)


def filesystem_of(path: str) -> str:
    """Filesystem type holding ``path`` (longest mount-point prefix)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _device, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def fingerprint(config: dict[str, Any]) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    import numpy

    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "wal_filesystem": filesystem_of(HERE),
        "sync_policy": config["wal"]["sync_policy"],
        "group_commit_size": config["wal"]["group_commit_size"],
        "sizes": {
            name: {k: v for k, v in settings.items() if k != "paced_rate"}
            for name, settings in config["workloads"].items()
        },
        "paced_rates": {
            name: settings["paced_rate"]
            for name, settings in config["workloads"].items()
        },
        "warmup_ops": config["warmup_ops"],
        "capacity_share": config["capacity_share"],
    }


# -- one run ---------------------------------------------------------------------


def run_once(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict[str, Any]:
    spec = load_spec()
    config = load_config(smoke)
    settings = config["workloads"][name]
    tracer = Tracer(enabled=trace)
    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    workload = make_workload(name, config, seed, workdir, tracer)
    import_s = clock() - _PROCESS_START

    # Both phases run over fixed input counts: the rates in config.json
    # are the seed commit's, so the counts fill about --seconds there.
    capacity_s = seconds * config["capacity_share"]
    cycle_ops = settings["cycle_ops"]
    # Whole cycles, and at least two: a traced run traces every other one.
    capacity_count = max(2, int(settings["capacity_rate"] * capacity_s) // cycle_ops) * cycle_ops
    paced_count = int(settings["paced_rate"] * (seconds - capacity_s))
    warmup = settings.get("warmup_ops", config["warmup_ops"])
    plain = workload.generate(warmup + capacity_count + paced_count)
    digest = hashlib.sha256(json.dumps(plain).encode()).hexdigest()
    inputs = workload.prepare(plain)

    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        # Several set-ups, the last one kept: setup_s is their median.
        setup_times = []
        for attempt in range(config["setup_repeats"]):
            if attempt:
                workload.teardown()
            gc.collect()
            start = clock()
            workload.setup(inputs[:warmup])
            setup_times.append(clock() - start)
        gc.collect()
        gc.freeze()
        with GcMonitor() as collector:
            capacity, untraced = capacity_phase(
                workload.step,
                inputs[warmup : warmup + capacity_count],
                cycle_ops,
                capacity_s * CAPACITY_OVERRUN_FACTOR,
                tracer,
            )
            tracer.recording = trace
            paced = run_paced(
                workload.step,
                inputs[warmup + capacity_count :],
                settings["paced_rate"],
                tracer,
            )
            tracer.recording = False
        gc.unfreeze()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        traced_ops = capacity.ops + paced.sent
        timed_ops = traced_ops + untraced.ops
        layers = workload.layer_metrics(traced_ops, warmup + timed_ops) if trace else {}
        failed, problems = workload.verify()
        if trace:
            probe_metrics, probe_failed, probe_problems = workload.probes()
            layers.update(probe_metrics)
            failed += probe_failed
            problems += probe_problems
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    attempted = timed_ops + paced.unsent
    failed = min(attempted, failed + paced.unsent)
    if paced.unsent:
        problems.append(f"paced phase overran: {paced.unsent} inputs never sent")
    latencies = workload.latencies_s
    if not latencies:
        raise SystemExit("no latency samples: the paced phase delivered nothing")

    if not trace:
        metric_specs = spec["end_to_end"]
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            # Quiet-quartile statistics (see README): interference from
            # outside this process only ever slows a cycle or a window
            # down, so the best quarter of them is what the program does.
            "throughput_ops_s": quartiles(capacity.cycle_throughputs(cycle_ops))[2],
            "latency_p50_ms": quiet_latency(latencies, 0.50) * 1e3,
            "latency_p90_ms": quiet_latency(latencies, 0.90) * 1e3,
            "peak_rss_mb": rss_kb / 1024.0,
        }
    else:
        metric_specs = spec["per_layer"]
        traced_wall_ns = tracer.total_ns()
        values = {metric["name"]: 0.0 for metric in metric_specs}
        values.update(layers)
        values.update(
            {
                "runtime.gc.pause_share": sum(collector.pauses_ns) / traced_wall_ns,
                "runtime.gc.pause_max_ms": max(collector.pauses_ns, default=0) / 1e6,
                "runtime.gc.gen2_collections": float(collector.gen2),
                "driver.self_share": tracer.self_ns.get("driver", 0) / traced_wall_ns,
                "driver.idle_share": tracer.self_ns.get("driver.idle", 0)
                / traced_wall_ns,
                "driver.backlog_max": float(paced.backlog_max),
                "driver.generator_lag_ms_p99": percentile(paced.generator_lag_s, 0.99)
                * 1e3,
                "latency.p99_ms": percentile(latencies, 0.99) * 1e3,
                # Medians over segments: one stall in either arm is an
                # outlier, not the price of tracing.
                "trace.overhead_share": 1.0
                - statistics.median(untraced.batch_walls_s)
                / statistics.median(capacity.batch_walls_s),
            }
        )
        unknown = set(values) - {metric["name"] for metric in metric_specs}
        if unknown:
            raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")

    record: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "inputs_sha256": digest,
        "samples": {
            "capacity_ops": capacity.ops,
            "capacity_wall_s": capacity.wall_s,
            "paced_ops": paced.sent,
            "paced_wall_s": paced.wall_s,
            "latency": len(latencies),
            "backlog_max": paced.backlog_max,
            "setup_s_each": setup_times,
        },
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in metric_specs
        },
    }
    if trace:
        record["layer_table"] = layer_table(tracer, traced_ops)
        write_trace(name, tracer, record)
    return record


def quiet_latency(samples: list[float], fraction: float) -> float:
    """First quartile, over the paced phase's windows, of each window's
    ``fraction`` percentile."""
    size = max(1, len(samples) // LATENCY_WINDOWS)
    return quartiles(
        [
            percentile(samples[start : start + size], fraction)
            for start in range(0, size * LATENCY_WINDOWS, size)
            if samples[start : start + size]
        ]
    )[0]


def capacity_phase(
    step: Any, inputs: list[Any], cycle_ops: int, give_up_s: float, tracer: Tracer
) -> tuple[CapacityResult, CapacityResult]:
    """The capacity phase, and the part of it run with recording off.

    An untraced run is one closed loop over all the inputs.  A traced
    run alternates cycles with span recording off and on, so that both
    arms meet the same drift and the same work; the second result then
    holds the cycles nobody traced (empty for an untraced run), and the
    throughput gap between the arms prices the tracing.
    """
    untraced = CapacityResult(ops=0, wall_s=0.0)
    if not tracer.enabled:
        return run_capacity(step, inputs, give_up_s, tracer), untraced
    traced = CapacityResult(ops=0, wall_s=0.0)
    for index, offset in enumerate(range(0, len(inputs), cycle_ops)):
        tracer.recording = index % 2 == 1
        arm = traced if tracer.recording else untraced
        segment = run_capacity(
            step, inputs[offset : offset + cycle_ops], give_up_s, tracer
        )
        arm.ops += segment.ops
        arm.wall_s += segment.wall_s
        arm.batch_walls_s += segment.batch_walls_s
    return traced, untraced


def layer_table(tracer: Tracer, ops: int) -> list[dict[str, Any]]:
    """Self time per span name; the shares sum to 1 by construction."""
    total = tracer.total_ns()
    return [
        {
            "layer": name,
            "calls": tracer.calls[name],
            "self_ms": self_ns / 1e6,
            "self_us_per_op": self_ns / 1e3 / ops,
            "share": self_ns / total,
        }
        for name, self_ns in sorted(
            tracer.self_ns.items(), key=lambda item: -item[1]
        )
    ]


def write_trace(name: str, tracer: Tracer, record: dict[str, Any]) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{name}.json"), "w") as handle:
        json.dump(
            {
                "workload": name,
                "seed": record["seed"],
                "layer_table": record["layer_table"],
                "spans_kept": len(tracer.spans),
                "spans": tracer.span_records(),
            },
            handle,
        )


def print_record(record: dict[str, Any], environment: dict[str, Any]) -> None:
    samples = record["samples"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  "
        f"seconds {record['seconds']}  trace {record['trace']}"
        + ("  SMOKE: sizes are tiny, the numbers mean nothing" if record["smoke"] else "")
    )
    print(f"fingerprint {json.dumps(environment, sort_keys=True)}")
    print(
        f"capacity phase: {samples['capacity_ops']} ops in "
        f"{samples['capacity_wall_s']:.2f} s (closed loop, micro-batches of 64); "
        f"paced phase: {samples['paced_ops']} ops in {samples['paced_wall_s']:.2f} s "
        f"(open loop), {samples['latency']} latency samples"
        + (
            ""
            if samples["latency"] >= P99_MIN_SAMPLES
            else f" (fewer than {P99_MIN_SAMPLES}: p99 is not meaningful)"
        )
        + f", backlog_max {samples['backlog_max']}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.4f} {metric['unit']}")
    for row in record.get("layer_table", ()):
        print(
            f"  layer {row['layer']:<28} {row['self_us_per_op']:>10.2f} us/op "
            f"{row['share'] * 100:>6.2f} %  ({row['calls']} spans)"
        )
    print(
        f"  failed_share {record['failed'] / record['attempted']:.6f} "
        f"({record['failed']} of {record['attempted']} ops)"
    )
    for problem in record["problems"]:
        print(f"  MISMATCH {problem}")


# -- sets of runs and their comparison -------------------------------------------------


def run_set(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    config = load_config(args.smoke)
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or config["default_seconds"]
    repeats = args.repeats or config["default_repeats"]
    os.makedirs(OUT_DIR, exist_ok=True)
    runs: list[dict[str, Any]] = []
    status = 0
    for name in names:
        plan = [(args.seed + repeat, 0) for repeat in range(repeats)]
        if args.trace:
            plan.append((args.seed, 1))
        for seed, trace in plan:
            record_path = os.path.join(OUT_DIR, f"record-{os.getpid()}.json")
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--out", record_path,
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0 or not os.path.exists(record_path):
                sys.stdout.write(done.stdout)
                sys.stderr.write(done.stderr)
                print(f"{name} seed {seed} trace {trace}: run failed")
                status = 1
                continue
            with open(record_path) as handle:
                record = json.load(handle)["runs"][0]
            os.remove(record_path)
            runs.append(record)
            print(
                f"{name} seed {seed} trace {trace}: "
                + ("ok" if record["correct"] else f"MISMATCH {record['problems']}"),
                flush=True,
            )
    result = {"schema": 1, "fingerprint": fingerprint(config), "runs": runs}
    print_set(result, spec)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1)
    return status


def metric_values(
    result: dict[str, Any], workload: str, metric: str, trace: int
) -> list[float]:
    return [
        run["metrics"][metric]["value"]
        for run in result["runs"]
        if run["workload"] == workload and run["trace"] == trace
    ]


def print_set(result: dict[str, Any], spec: dict[str, Any]) -> None:
    print(f"fingerprint {json.dumps(result['fingerprint'], sort_keys=True)}")
    if any(run["smoke"] for run in result["runs"]):
        print("SMOKE: sizes are tiny, the numbers mean nothing")
    for workload in dict.fromkeys(run["workload"] for run in result["runs"]):
        untraced = [r for r in result["runs"] if r["workload"] == workload and not r["trace"]]
        print(f"\n{workload}: {len(untraced)} runs, median [q1 .. q3]")
        for metric in spec["end_to_end"]:
            values = metric_values(result, workload, metric["name"], 0)
            if values:
                q1, median, q3 = quartiles(values)
                print(
                    f"  {metric['name']:<22} {median:>12.4f} "
                    f"[{q1:.4f} .. {q3:.4f}] {metric['unit']}"
                )
        if untraced:
            attempted = sum(run["attempted"] for run in untraced)
            failed = sum(run["failed"] for run in untraced)
            latency = statistics.median(run["samples"]["latency"] for run in untraced)
            backlog = max(run["samples"]["backlog_max"] for run in untraced)
            print(
                f"  failed_share           {failed / attempted:>12.6f} "
                f"({failed} of {attempted} ops); latency samples per run "
                f"{latency:.0f}; driver.backlog_max {backlog}"
            )
        for run in result["runs"]:
            if run["workload"] == workload and run["trace"]:
                print(f"  traced run (seed {run['seed']}): layer table")
                for row in run["layer_table"]:
                    print(
                        f"    {row['layer']:<28} {row['self_us_per_op']:>10.2f} us/op "
                        f"{row['share'] * 100:>6.2f} %"
                    )
                for name, metric in run["metrics"].items():
                    if metric["value"]:
                        print(f"    {name:<40} {metric['value']:>14.4f} {metric['unit']}")


def verdict(
    metric: dict[str, Any], before: list[float], after: list[float]
) -> tuple[str, str]:
    """``worse`` / ``not-worse`` / ``unresolved`` plus the printed detail."""
    q1_a, median_a, q3_a = quartiles(before)
    q1_b, median_b, q3_b = quartiles(after)
    bound = metric["bound"]
    spread = max((q3_a - q1_a) / median_a, (q3_b - q1_b) / median_b)
    change = (median_b - median_a) / median_a
    if metric["better"] == "higher":
        change = -change
    if spread > bound:
        outcome = "unresolved"
    elif change > bound:
        outcome = "worse"
    else:
        outcome = "not-worse"
    detail = (
        f"{median_a:>12.4f} [{q1_a:.4f} .. {q3_a:.4f}]  "
        f"{median_b:>12.4f} [{q1_b:.4f} .. {q3_b:.4f}] {metric['unit']:<5} "
        f"worse by {change * 100:+.1f} % (bound {bound * 100:.0f} %, "
        f"spread {spread * 100:.1f} %)"
    )
    return outcome, detail


def compare(path_a: str, path_b: str, spec: dict[str, Any]) -> int:
    with open(path_a) as handle:
        before = json.load(handle)
    with open(path_b) as handle:
        after = json.load(handle)
    print(f"A {path_a} commit {before['fingerprint']['commit']}")
    print(f"B {path_b} commit {after['fingerprint']['commit']}")
    outcomes = []
    for workload in [w["name"] for w in spec["workloads"]]:
        print(f"\n{workload}")
        for metric in spec["end_to_end"]:
            values_a = metric_values(before, workload, metric["name"], 0)
            values_b = metric_values(after, workload, metric["name"], 0)
            if not values_a or not values_b:
                continue
            outcome, detail = verdict(metric, values_a, values_b)
            outcomes.append(outcome)
            print(f"  {metric['name']:<22} {detail}  {outcome}")
        for metric in spec["per_layer"]:
            values_a = metric_values(before, workload, metric["name"], 1)
            values_b = metric_values(after, workload, metric["name"], 1)
            if values_a and values_b and (any(values_a) or any(values_b)):
                print(
                    f"  {metric['name']:<40} {statistics.median(values_a):>14.4f}  "
                    f"{statistics.median(values_b):>14.4f} {metric['unit']}  (diagnostic)"
                )
    print(
        f"\n{outcomes.count('worse')} worse, {outcomes.count('unresolved')} unresolved, "
        f"{outcomes.count('not-worse')} not-worse"
    )
    return 1 if "worse" in outcomes else 0


def main() -> int:
    spec = load_spec()
    config = load_config(False)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=config["default_seed"])
    parser.add_argument("--seconds", type=float, help="length of one run's timed phases")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeats", type=int, help="runs per workload, each in a fresh subprocess")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; the numbers mean nothing")
    parser.add_argument("--out", help="write the run records to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare, spec)
    if args.workload is None or args.repeats is not None:
        return run_set(args, spec)

    config = load_config(args.smoke)
    record = run_once(
        args.workload,
        args.seed,
        args.seconds or config["default_seconds"],
        bool(args.trace),
        args.smoke,
    )
    environment = fingerprint(config)
    print_record(record, environment)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"schema": 1, "fingerprint": environment, "runs": [record]}, handle)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
