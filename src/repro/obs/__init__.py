"""Observability layer: metrics registry + event trace IDs.

See :mod:`repro.obs.metrics` for the instrument/registry design and
:mod:`repro.obs.trace` for trace-id propagation; ``docs/architecture.md``
("Observability & tracking") covers how the hot stages are wired.
"""

from repro.obs.metrics import (
    NULL_GAUGE,
    NULL_HISTOGRAM,
    UNPUBLISHED,
    Counter,
    CounterView,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_counters,
    metric_key,
    reset_aggregate,
    split_metric_key,
)
from repro.obs.trace import (
    TraceHop,
    TraceLog,
    default_trace_log,
    lookup_trace,
    new_trace_id,
    record_hop,
    set_default_trace_log,
)

__all__ = [
    "Counter",
    "CounterView",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "TraceHop",
    "TraceLog",
    "UNPUBLISHED",
    "aggregate_counters",
    "default_trace_log",
    "lookup_trace",
    "metric_key",
    "new_trace_id",
    "record_hop",
    "reset_aggregate",
    "set_default_trace_log",
    "split_metric_key",
]
