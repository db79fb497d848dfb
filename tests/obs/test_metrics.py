"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import gc

import pytest

from repro.clock import SimulatedClock
from repro.db import Database
from repro.obs.metrics import (
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    MetricsRegistry,
    aggregate_counters,
    metric_key,
    reset_aggregate,
    split_metric_key,
)


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("wal.fsyncs", {}) == "wal.fsyncs"

    def test_labels_sorted(self):
        key = metric_key("queue.depth", {"queue": "q", "broker": "b"})
        assert key == "queue.depth{broker=b,queue=q}"

    def test_split_roundtrip(self):
        key = metric_key("x", {"a": "1", "b": "two"})
        name, labels = split_metric_key(key)
        assert name == "x"
        assert labels == {"a": "1", "b": "two"}

    def test_split_bare(self):
        assert split_metric_key("plain") == ("plain", {})


class TestCountersAndGauges:
    def test_counter_identity_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", queue="q1")
        b = registry.counter("hits", queue="q1")
        c = registry.counter("hits", queue="q2")
        assert a is b
        assert a is not c
        a.inc()
        a.inc(3)
        assert registry.snapshot()["counters"]["hits{queue=q1}"] == 4
        assert registry.snapshot()["counters"]["hits{queue=q2}"] == 0

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert registry.snapshot()["gauges"]["depth"] == 12

    def test_gauge_fn_evaluated_at_snapshot(self):
        registry = MetricsRegistry()
        state = {"value": 1}
        registry.gauge_fn("lazy", lambda: state["value"])
        state["value"] = 42
        assert registry.snapshot()["gauges"]["lazy"] == 42

    def test_broken_gauge_provider_does_not_break_snapshot(self):
        registry = MetricsRegistry()
        registry.gauge_fn("broken", lambda: 1 / 0)
        assert registry.snapshot()["gauges"]["broken"] is None

    def test_snapshot_timestamp_from_clock(self):
        clock = SimulatedClock(start=500.0)
        registry = MetricsRegistry(clock=clock)
        clock.advance(7.0)
        assert registry.snapshot()["ts"] == 507.0


class TestHistogram:
    def test_summary_statistics(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 10.0
        assert snap["mean"] == 2.5
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0

    def test_percentiles_nearest_rank(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for value in range(1, 101):
            histogram.observe(float(value))
        snap = histogram.snapshot()
        assert snap["p50"] == pytest.approx(50.0, abs=1.0)
        assert snap["p95"] == pytest.approx(95.0, abs=1.0)
        assert snap["p99"] == pytest.approx(99.0, abs=1.0)

    def test_window_is_bounded_but_totals_exact(self):
        registry = MetricsRegistry(histogram_window=8)
        histogram = registry.histogram("latency")
        for value in range(1000):
            histogram.observe(float(value))
        assert histogram.count == 1000
        assert len(histogram._window) == 8
        # Percentiles reflect the recent window only.
        assert histogram.percentile(0) >= 992.0

    def test_empty_percentile_is_none(self):
        histogram = MetricsRegistry().histogram("latency")
        assert histogram.percentile(50) is None
        assert histogram.snapshot()["p99"] is None


class TestDisabledRegistry:
    def test_hands_out_private_counters_and_null_gauges(self):
        # Disabled means unpublished, not uncounted: each caller gets
        # its own live Counter; gauges and histograms stay shared no-ops.
        registry = MetricsRegistry(enabled=False)
        first, second = registry.counter("c"), registry.counter("c")
        assert type(first) is Counter and first is not second
        first.inc(3)
        assert first.value == 3 and second.value == 0
        assert registry.gauge("g") is NULL_GAUGE
        assert registry.histogram("h") is NULL_HISTOGRAM

    def test_null_instruments_record_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc(100)
        registry.gauge("g").set(5)
        registry.gauge_fn("lazy", lambda: 1)
        registry.histogram("h").observe(1.0)
        snap = registry.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_error_accounting_still_works_when_disabled(self):
        # Failure accounting is cold-path and must never be optimized
        # away — the whole point of fixing the silent-swallow sites.
        registry = MetricsRegistry(enabled=False)
        exc = ValueError("boom")
        registry.record_error("stage.x", exc)
        assert registry.errors_suppressed("stage.x") == 1
        assert registry.errors_suppressed() == 1
        assert registry.last_error("stage.x") is exc


class TestErrorAccounting:
    def test_counts_per_stage_and_retains_last(self):
        registry = MetricsRegistry()
        first, second = KeyError("a"), RuntimeError("b")
        registry.record_error("s1", first)
        registry.record_error("s1", second)
        registry.record_error("s2", first)
        assert registry.errors_suppressed("s1") == 2
        assert registry.errors_suppressed("s2") == 1
        assert registry.errors_suppressed() == 3
        assert registry.last_error("s1") is second
        snap = registry.snapshot()
        assert snap["errors_suppressed"] == {"s1": 2, "s2": 1}
        assert "RuntimeError: b" in snap["last_errors"]["s1"]


class TestProcessAggregate:
    def test_live_and_retired_registries_fold_together(self):
        reset_aggregate()
        live = MetricsRegistry()
        live.counter("agg.test", side="live").inc(2)

        def make_retired():
            retired = MetricsRegistry()
            retired.counter("agg.test", side="gone").inc(5)

        make_retired()
        gc.collect()
        totals = aggregate_counters(by_name=True)
        assert totals["agg.test"] == 7
        by_key = aggregate_counters(by_name=False)
        assert by_key["agg.test{side=live}"] == 2
        assert by_key["agg.test{side=gone}"] == 5

    def test_errors_included_in_aggregate(self):
        reset_aggregate()
        registry = MetricsRegistry()
        registry.record_error("stage.y", ValueError("x"))
        totals = aggregate_counters(by_name=True)
        assert totals["errors_suppressed"] == 1

    def test_reset_zeroes_everything(self):
        registry = MetricsRegistry()
        registry.counter("will.be.reset").inc(9)
        reset_aggregate()
        assert aggregate_counters().get("will.be.reset", 0) == 0

    def test_reset_writes_no_live_counter(self):
        # The reset is a baseline the aggregate subtracts: a live
        # database's snapshot and its .stats views keep their counts.
        from repro.queues import Message, QueueTable

        db = Database(clock=SimulatedClock(start=0.0))
        queue = QueueTable(db, "q")
        for i in range(3):
            queue.enqueue(Message(payload={"i": i}))
        reset_aggregate()
        published = db.metrics()["counters"]["queue.enqueued{queue=q}"]
        assert published == queue.stats["enqueued"] == 3
        by_key = aggregate_counters(by_name=False)
        assert by_key.get("queue.enqueued{queue=q}", 0) == 0
        queue.enqueue(Message(payload={"i": 3}))
        assert aggregate_counters(by_name=False)["queue.enqueued{queue=q}"] == 1


class TestMergeSnapshots:
    """Folding per-process registry snapshots (the shard fleet path)."""

    def _snapshots(self):
        from repro.obs.metrics import merge_snapshots  # noqa: F401

        a = MetricsRegistry(clock=SimulatedClock(start=10.0))
        a.counter("queue.enqueued", queue="orders").inc(7)
        a.gauge("queue.depth", queue="orders").set(3)
        a.histogram("wal.group_commit_batch").observe(4.0)
        a.record_error("shard.worker", ValueError("a"))
        b = MetricsRegistry(clock=SimulatedClock(start=20.0))
        b.counter("queue.enqueued", queue="orders").inc(5)
        b.counter("queue.enqueued", queue="alerts").inc(2)
        b.gauge("queue.depth", queue="orders").set(1)
        b.histogram("wal.group_commit_batch").observe(8.0)
        return a.snapshot(), b.snapshot()

    def test_counters_and_gauges_sum_across_sources(self):
        from repro.obs.metrics import merge_snapshots

        snap_a, snap_b = self._snapshots()
        merged = merge_snapshots({0: snap_a, 1: snap_b})
        assert merged["counters"]["queue.enqueued{queue=orders}"] == 12
        assert merged["counters"]["queue.enqueued{queue=alerts}"] == 2
        assert merged["gauges"]["queue.depth{queue=orders}"] == 4
        assert merged["errors_suppressed"]["shard.worker"] == 1
        assert merged["ts"] == 20.0
        assert merged["sources"] == [0, 1]

    def test_label_name_retains_per_source_series(self):
        from repro.obs.metrics import merge_snapshots

        snap_a, snap_b = self._snapshots()
        merged = merge_snapshots({0: snap_a, 1: snap_b}, label_name="shard")
        assert merged["gauges"]["queue.depth{queue=orders,shard=0}"] == 3
        assert merged["gauges"]["queue.depth{queue=orders,shard=1}"] == 1
        assert merged["counters"]["queue.enqueued{queue=orders,shard=1}"] == 5
        # the unlabeled sum is still present
        assert merged["counters"]["queue.enqueued{queue=orders}"] == 12

    def test_histograms_merge_exact_fields_only(self):
        from repro.obs.metrics import merge_snapshots

        snap_a, snap_b = self._snapshots()
        merged = merge_snapshots({0: snap_a, 1: snap_b})
        h = merged["histograms"]["wal.group_commit_batch"]
        assert h["count"] == 2
        assert h["sum"] == 12.0
        assert h["mean"] == 6.0
        assert h["min"] == 4.0 and h["max"] == 8.0
        # window percentiles are not mergeable across processes
        assert h["p50"] is None

    def test_single_source_histogram_keeps_percentiles(self):
        from repro.obs.metrics import merge_snapshots

        snap_a, _ = self._snapshots()
        merged = merge_snapshots({0: snap_a})
        assert merged["histograms"]["wal.group_commit_batch"]["p50"] == 4.0

    def test_absorb_snapshot_feeds_aggregate(self):
        from repro.obs.metrics import absorb_snapshot

        reset_aggregate()
        _, snap_b = self._snapshots()
        absorb_snapshot(snap_b)
        totals = aggregate_counters(by_name=True)
        # 5 + 2 from the absorbed remote snapshot, plus the registries
        # _snapshots built after the reset.
        assert totals["queue.enqueued"] >= 7
