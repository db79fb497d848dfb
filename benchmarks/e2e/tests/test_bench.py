"""Self-tests of the EXP-0 benchmark (``python -m pytest benchmarks/e2e/tests``).

They exercise the benchmark's own promises on ``--smoke`` sizes: the
metric and workload names are the ones BENCHMARK.json lists, inputs are
a pure function of the seed, count metrics repeat exactly, the layer
table accounts for the whole traced wall time, and a wrong reference
fails the run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))
BENCH = os.path.join(E2E, "bench.py")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, E2E)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: Counts that identical inputs must reproduce exactly.  Journal bytes
#: are not among them: records carry wall-clock stamps whose decimal
#: length varies, so bytes repeat only to a fraction of a percent.
EXACT_COUNTS = (
    "db.wal.appends_per_op",
    "db.wal.fsyncs_per_op",
    "rules.matches_per_op",
    "rules.conditions_per_op",
    "pubsub.deliveries_per_op",
    "queues.messages_per_op",
)


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, BENCH, *args], capture_output=True, text=True, timeout=300
    )


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory) -> dict:
    """One ``--smoke`` set: every workload once untraced, once traced."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = run_bench("--smoke", "--trace", "--repeats", "1", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as handle:
        return json.load(handle)


def test_smoke_emits_exactly_the_listed_names(smoke_set):
    names = {"0": [m["name"] for m in SPEC["end_to_end"]],
             "1": [m["name"] for m in SPEC["per_layer"]]}
    seen = set()
    for run in smoke_set["runs"]:
        seen.add((run["workload"], run["trace"]))
        assert list(run["metrics"]) == names[str(run["trace"])]
        assert run["correct"] and run["failed"] == 0 and run["smoke"]
    assert seen == {(name, trace) for name in WORKLOADS for trace in (0, 1)}


def test_driver_line_is_the_last_line_and_has_exactly_four_keys():
    done = run_bench(
        "--workload", "stream_cq", "--seed", "3", "--seconds", "1", "--trace", "0",
        "--smoke",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_same_seed_generates_byte_identical_inputs():
    from pipeline import make_fixture, make_rows
    from sql_mixed import make_statements, make_table
    from stream_cq import make_ticks

    mix = {"point_select": 0.5, "index_select": 0.2, "update": 0.2, "insert": 0.1}
    generators = [
        lambda seed: make_rows(seed, 300),
        lambda seed: make_fixture(seed, 40, 10),
        lambda seed: make_ticks(seed, 300),
        lambda seed: make_table(seed, 300),
        lambda seed: make_statements(seed, 300, 300, mix, 50),
    ]
    for generate in generators:
        assert json.dumps(generate(11)) == json.dumps(generate(11))
        assert json.dumps(generate(11)) != json.dumps(generate(12))


def test_count_metrics_repeat_exactly(smoke_set):
    first = next(
        run for run in smoke_set["runs"]
        if run["workload"] == "pipeline_inproc" and run["trace"]
    )
    done = run_bench(
        "--workload", "pipeline_inproc", "--seed", str(first["seed"]),
        "--trace", "1", "--smoke",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    second = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    for name in EXACT_COUNTS:
        assert second[name]["value"] == first["metrics"][name]["value"], name
        assert second[name]["value"] > 0, name
    bytes_a = first["metrics"]["db.wal.bytes_per_op"]["value"]
    bytes_b = second["db.wal.bytes_per_op"]["value"]
    assert abs(bytes_a - bytes_b) / bytes_a < 0.005


def test_layer_table_sums_to_the_traced_wall_time(smoke_set):
    for run in smoke_set["runs"]:
        if run["trace"]:
            assert sum(row["share"] for row in run["layer_table"]) == pytest.approx(1.0)
    # Against the raw spans: root spans are the traced wall time.
    with open(os.path.join(E2E, "out", "trace-pipeline_inproc.json")) as handle:
        trace = json.load(handle)
    assert trace["spans_kept"] == len(trace["spans"]) < 50_000
    wall_ns = sum(
        span["end"] - span["start"] for span in trace["spans"] if span["parent"] is None
    )
    table_ns = sum(row["self_ms"] for row in trace["layer_table"]) * 1e6
    assert table_ns == pytest.approx(wall_ns, rel=0.01)
    assert {"driver", "db.write", "rules.evaluate", "core.virt"} <= {
        row["layer"] for row in trace["layer_table"]
    }


def test_corrupted_reference_fails_the_run(monkeypatch, capsys):
    import bench
    import pipeline

    honest = pipeline.reference_deliveries

    def corrupted(fixture, rows):
        expected = honest(fixture, rows)
        expected.pop(next(iter(expected)))
        return expected

    monkeypatch.setattr(pipeline, "reference_deliveries", corrupted)
    monkeypatch.setattr(
        sys, "argv",
        ["bench.py", "--workload", "pipeline_inproc", "--seed", "5", "--smoke"],
    )
    assert bench.main() == 1
    printed = capsys.readouterr().out
    assert "MISMATCH" in printed
    result = json.loads(printed.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_compare_flags_worse_and_unresolved(tmp_path):
    def result_set(throughputs):
        return {
            "schema": 1,
            "fingerprint": {"commit": "x"},
            "runs": [
                {
                    "workload": "stream_cq",
                    "trace": 0,
                    "metrics": {
                        metric["name"]: {
                            "value": value if metric["name"] == "throughput_ops_s" else 1.0,
                            "unit": metric["unit"],
                        }
                        for metric in SPEC["end_to_end"]
                    },
                }
                for value in throughputs
            ],
        }

    paths = {}
    for name, values in {
        "base": [100.0, 101.0, 99.0, 100.5, 99.5],
        "slow": [60.0, 61.0, 59.0, 60.5, 59.5],
        "noisy": [60.0, 140.0, 100.0, 70.0, 130.0],
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(result_set(values)))

    same = run_bench("--compare", str(paths["base"]), str(paths["base"]))
    assert same.returncode == 0 and "0 worse, 0 unresolved" in same.stdout
    slow = run_bench("--compare", str(paths["base"]), str(paths["slow"]))
    assert slow.returncode == 1 and "1 worse" in slow.stdout
    noisy = run_bench("--compare", str(paths["base"]), str(paths["noisy"]))
    assert noisy.returncode == 0 and "1 unresolved" in noisy.stdout
