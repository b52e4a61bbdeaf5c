"""Sample statistics and registry arithmetic shared by the harness."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


median = statistics.median


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance as a share of the median.

    This is the steadiness measure the benchmark contract uses
    (``statistics.quantiles(values, n=4)``); ``None`` when fewer than
    two values exist or the median is zero.
    """
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if middle == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


def describe(samples: Sequence[float]) -> Dict[str, float]:
    """Non-gated context printed beside a median."""
    return {
        "n": len(samples),
        "median": median(samples),
        "min": min(samples),
        "max": max(samples),
        "iqr": percentile(samples, 0.75) - percentile(samples, 0.25),
    }


# ----------------------------------------------------------------------
# MetricsRegistry arithmetic: the harness reads layers from outside by
# differencing registry snapshots around the timed region.
# ----------------------------------------------------------------------


def registry_snapshot(registry) -> Dict[str, dict]:
    """Totals per metric family: counters by label set, histograms too."""
    snapshot: Dict[str, dict] = {}
    for metric in registry:
        samples = metric.samples()
        if metric.metric_type == "histogram":
            buckets: Dict[float, int] = {}
            for sample in samples:
                for bucket in sample["buckets"]:
                    bound = (
                        math.inf if bucket["le"] == "+Inf" else bucket["le"]
                    )
                    buckets[bound] = buckets.get(bound, 0) + bucket["count"]
            snapshot[metric.name] = {
                "sum": sum(s["sum"] for s in samples),
                "count": sum(s["count"] for s in samples),
                "buckets": buckets,
                "by_label": {
                    _label_key(s["labels"]): s["sum"] for s in samples
                },
            }
        else:
            snapshot[metric.name] = {
                "sum": sum(s["value"] for s in samples),
                "by_label": {
                    _label_key(s["labels"]): s["value"] for s in samples
                },
            }
    return snapshot


def _label_key(labels: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


class RegistryDelta:
    """What the registry accumulated between two snapshots."""

    def __init__(self, before: Dict[str, dict], after: Dict[str, dict]):
        self.before = before
        self.after = after

    def total(self, name: str, field: str = "sum") -> float:
        """Growth of a counter's value or a histogram's ``sum``/``count``."""
        new = self.after.get(name, {}).get(field, 0.0)
        old = self.before.get(name, {}).get(field, 0.0)
        return new - old

    def labelled(self, name: str, label: str) -> float:
        """Growth of one label set, e.g. ``labelled(m, "cls=repair")``."""
        new = self.after.get(name, {}).get("by_label", {}).get(label, 0.0)
        old = self.before.get(name, {}).get("by_label", {}).get(label, 0.0)
        return new - old

    def quantile(self, name: str, q: float) -> float:
        """Bucket-interpolated quantile of a histogram's new observations.

        Histograms keep fixed buckets, so this is an estimate whose
        resolution is the bucket width; 0.0 when nothing was observed.
        """
        new = self.after.get(name, {}).get("buckets", {})
        old = self.before.get(name, {}).get("buckets", {})
        bounds = sorted(new)
        counts = [new[b] - old.get(b, 0) for b in bounds]  # cumulative
        total = counts[-1] if counts else 0
        if total <= 0:
            return 0.0
        target = q * total
        lower_bound, lower_count = 0.0, 0
        for bound, count in zip(bounds, counts):
            if count >= target:
                if math.isinf(bound):
                    return lower_bound
                share = (target - lower_count) / max(count - lower_count, 1)
                return lower_bound + (bound - lower_bound) * share
            lower_bound, lower_count = bound, count
        return lower_bound


def safe_div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
