"""``python -m repro stats`` — the acceptance surface of the obs layer."""

import json

from repro.__main__ import main
from repro.obs.report import run_stats_workload


class TestStatsWorkload:
    def test_hot_stage_counters_nonzero(self):
        report = run_stats_workload(events=20)
        counters = report["local"]["counters"]
        assert counters["wal.fsyncs"] > 0
        assert counters["queue.enqueued{queue=matched}"] > 0
        assert counters["queue.acked{queue=matched}"] > 0
        assert counters["rules.events_evaluated"] == 20
        assert counters["rules.conditions_evaluated"] > 0
        assert counters["rules.matches"] > 0
        assert report["remote"]["counters"]["delivery.acked{queue=remote}"] > 0

    def test_columnar_maintenance_is_visible(self):
        report = run_stats_workload(events=40)
        local = report["local"]["gauges"]
        assert local["columnar.rebuilds{table=orders}"] == 1
        assert local["columnar.append_batches{table=orders}"] == 1
        assert local["columnar.patched_rows{table=orders}"] == 0
        remote = {
            key.partition("{")[0]: value
            for key, value in report["remote"]["gauges"].items()
            if key.startswith("columnar.")
        }
        assert remote["columnar.rebuilds"] == 1
        assert remote["columnar.patched_rows"] > 0

    def test_sample_trace_covers_capture_to_delivery(self):
        report = run_stats_workload(events=20)
        trace = report["trace"]
        assert trace is not None
        stages = [hop["stage"] for hop in trace["hops"]]
        for stage in (
            "capture", "rule.match", "queue.enqueue", "delivery.consumed"
        ):
            assert stage in stages

    def test_faults_surface_every_swallow_site(self):
        report = run_stats_workload(events=20, faults=True)
        suppressed = dict(report["local"]["errors_suppressed"])
        suppressed.update(report["remote"]["errors_suppressed"])
        for stage in (
            "pubsub.drain",
            "delivery.process_batch",
            "capture.trigger.close",
            "capture.notification.close",
        ):
            assert suppressed.get(stage, 0) > 0, f"{stage} not surfaced"


class TestStatsCli:
    def test_text_output(self, capsys):
        assert main(["stats", "--events", "10"]) == 0
        out = capsys.readouterr().out
        assert "wal.fsyncs" in out
        assert "queue.enqueued" in out
        assert "rules.events_evaluated" in out
        assert "sample trace" in out

    def test_json_output_parses(self, capsys):
        assert main(["stats", "--events", "10", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["local"]["counters"]["wal.fsyncs"] > 0
        assert report["trace"]["hops"]
