"""Observability: metrics registry + repair-round tracing.

The measurement substrate for every "where does repair time go"
question the paper's evaluation asks (see DESIGN.md, "Observability"):
a zero-dependency :class:`MetricsRegistry` (counters / gauges /
fixed-bucket histograms with one JSON exposition) and
a span :class:`Tracer` with a pluggable wall-clock or simulated
clock, whose one trace schema every transport emits.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from .report import (
    REPORT_SCHEMA_VERSION,
    RepairBreakdown,
    RoundBreakdown,
    breakdown_from_trace,
    load_report_inputs,
    metrics_summary,
    render_breakdown,
)
from .tracing import (
    TRACE_SCHEMA_VERSION,
    SimClock,
    Span,
    TraceDocument,
    TraceError,
    Tracer,
    WallClock,
    duration_of,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA_VERSION",
    "MetricError",
    "MetricsRegistry",
    "REPORT_SCHEMA_VERSION",
    "RepairBreakdown",
    "RoundBreakdown",
    "SimClock",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "TraceDocument",
    "TraceError",
    "Tracer",
    "WallClock",
    "breakdown_from_trace",
    "duration_of",
    "load_report_inputs",
    "metrics_summary",
    "render_breakdown",
]
