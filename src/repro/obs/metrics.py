"""Zero-dependency metrics primitives: counters, gauges, histograms.

The paper's evaluation is a per-stage timing breakdown — where each
repair round spends its time (migration vs. reconstruction, disk vs.
network, Figs. 8-15).  :class:`MetricsRegistry` is the substrate that
makes those breakdowns observable on our runtime without
pulling in a metrics client library:

* :class:`Counter` — monotonically increasing totals (bytes moved,
  retries, journal records);
* :class:`Gauge` — point-in-time levels (inbox depth, queue depth);
* :class:`Histogram` — fixed-bucket distributions (throttle waits,
  decode times, round durations).

All three support optional labels (``counter.inc(5, node=3)``), are
thread-safe (the runtime increments from agent worker threads), and
are exposed as one JSON document (:meth:`MetricsRegistry.to_dict`) for
``--metrics-out`` files, ``fastpr report`` and the benches.

Metric names follow the Prometheus conventions: ``snake_case``, unit
suffixes (``_seconds``, ``_bytes``), ``_total`` for counters.  The
names used by the runtime are tabulated in DESIGN.md ("Observability").
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: schema version of the JSON exposition document
METRICS_SCHEMA_VERSION = 1

#: default histogram buckets: latencies from 100us to ~2min (seconds)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: a frozen label set, usable as a dict key
LabelSet = Tuple[Tuple[str, str], ...]


class MetricError(ValueError):
    """Raised on invalid metric names, labels or type clashes."""


def _freeze_labels(labels: Dict[str, object]) -> LabelSet:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise MetricError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base class: a named family of samples keyed by label set."""

    metric_type = "untyped"

    def __init__(self, name: str, help: str = ""):
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        #: labels exactly as an update passed them -> their frozen set
        self._frozen: Dict[tuple, LabelSet] = {}

    def _freeze(self, labels: Dict[str, object]) -> LabelSet:
        """:func:`_freeze_labels`, validated and sorted once per distinct
        label set instead of on every update of a per-packet metric.

        The memo key keeps each value's type beside it: ``1``, ``1.0``
        and ``True`` hash alike but label differently.
        """
        if not labels:
            return ()
        try:
            key = (*labels.items(), *map(type, labels.values()))
            frozen = self._frozen.get(key)
        except TypeError:  # unhashable label value
            return _freeze_labels(labels)
        if frozen is None:
            frozen = self._frozen[key] = _freeze_labels(labels)
        return frozen

    def samples(self) -> List[dict]:
        """JSON-compatible samples (one per label set)."""
        raise NotImplementedError



class Counter(Metric):
    """A monotonically increasing value per label set."""

    metric_type = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelSet, float] = {}

    def inc(self, amount: Union[int, float] = 1, **labels) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease")
        key = self._freeze(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        """Current value for one label set (0 if never incremented)."""
        with self._lock:
            return self._values.get(self._freeze(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set."""
        with self._lock:
            return sum(self._values.values())

    def samples(self) -> List[dict]:
        with self._lock:
            return [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ]


class Gauge(Metric):
    """A value that can go up and down (queue depths, levels)."""

    metric_type = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelSet, float] = {}

    def set(self, value: Union[int, float], **labels) -> None:
        with self._lock:
            self._values[self._freeze(labels)] = float(value)

    def inc(self, amount: Union[int, float] = 1, **labels) -> None:
        key = self._freeze(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: Union[int, float] = 1, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(self._freeze(labels), 0.0)

    def samples(self) -> List[dict]:
        with self._lock:
            return [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ]


class Histogram(Metric):
    """Fixed-bucket distribution with cumulative Prometheus semantics.

    Buckets are upper bounds; an observation lands in every bucket
    whose bound is >= the value (cumulative), plus the implicit
    ``+Inf`` bucket.  ``sum`` and ``count`` are tracked per label set.
    """

    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricError(f"histogram {name} needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise MetricError(f"histogram {name} has duplicate buckets")
        if bounds and bounds[-1] == math.inf:
            bounds = bounds[:-1]  # +Inf is implicit
        self.buckets = bounds
        #: label set -> (per-bucket counts (non-cumulative) + inf slot, sum, count)
        self._series: Dict[LabelSet, List] = {}

    def observe(self, value: Union[int, float], **labels) -> None:
        key = self._freeze(labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = [[0] * (len(self.buckets) + 1), 0.0, 0]
                self._series[key] = series
            series[0][index] += 1
            series[1] += value
            series[2] += 1

    def count(self, **labels) -> int:
        with self._lock:
            series = self._series.get(self._freeze(labels))
            return 0 if series is None else series[2]

    def sum(self, **labels) -> float:
        with self._lock:
            series = self._series.get(self._freeze(labels))
            return 0.0 if series is None else series[1]

    def bucket_counts(self, **labels) -> Dict[float, int]:
        """Cumulative counts per upper bound (including ``inf``)."""
        with self._lock:
            series = self._series.get(self._freeze(labels))
            raw = [0] * (len(self.buckets) + 1) if series is None else series[0]
        cumulative: Dict[float, int] = {}
        running = 0
        for bound, count in zip(self.buckets, raw):
            running += count
            cumulative[bound] = running
        cumulative[math.inf] = running + raw[-1]
        return cumulative

    def samples(self) -> List[dict]:
        out = []
        with self._lock:
            items = sorted(self._series.items())
        for key, (raw, total, count) in items:
            running = 0
            buckets = []
            for bound, bucket_count in zip(self.buckets, raw):
                running += bucket_count
                buckets.append({"le": bound, "count": running})
            buckets.append({"le": "+Inf", "count": running + raw[-1]})
            out.append(
                {
                    "labels": dict(key),
                    "buckets": buckets,
                    "sum": total,
                    "count": count,
                }
            )
        return out


class MetricsRegistry:
    """Thread-safe registry of named metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling the
    same name twice returns the same instance (instrumented layers can
    share one registry without coordinating creation order), while
    re-registering a name as a different type raises
    :class:`MetricError`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help=help, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls) or type(metric) is not cls:
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{metric.metric_type}, not {cls.metric_type}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def __iter__(self) -> Iterable[Metric]:
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        return iter(metrics)

    # -- exposition ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON exposition: every family with its samples."""
        return {
            "version": METRICS_SCHEMA_VERSION,
            "metrics": [
                {
                    "name": metric.name,
                    "type": metric.metric_type,
                    "help": metric.help,
                    "samples": metric.samples(),
                }
                for metric in self
            ],
        }

    def save(self, path: Union[str, Path]) -> None:
        """Write the JSON exposition document to a file."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))
