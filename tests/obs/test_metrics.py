"""Metrics registry: instruments, concurrency, exposition formats."""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path

import pytest

from repro.obs import (
    METRICS_SCHEMA_VERSION,
    MetricError,
    MetricsRegistry,
    parse_prometheus,
)


class TestCounter:
    def test_inc_and_total(self):
        counter = MetricsRegistry().counter("requests_total")
        counter.inc()
        counter.inc(4)
        assert counter.total() == 5

    def test_labels_are_independent_series(self):
        counter = MetricsRegistry().counter("actions_total")
        counter.inc(2, method="migration")
        counter.inc(3, method="reconstruction")
        assert counter.value(method="migration") == 2
        assert counter.value(method="reconstruction") == 3
        assert counter.total() == 5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_invalid_label_name_rejected_at_first_use(self):
        registry = MetricsRegistry()
        for update in (
            registry.counter("c").inc,
            registry.gauge("g").set,
            registry.histogram("h").observe,
        ):
            update(1, node=3)  # a valid set frozen before changes nothing
            for _ in range(2):  # and a rejected one is never memoised
                with pytest.raises(MetricError):
                    update(1, **{"bad-name": 3})

    def test_label_order_and_value_type(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(1, src=0, dst=1)
        counter.inc(1, dst=1, src=0)
        assert counter.value(src=0, dst=1) == 2
        # Equal-hashing values of different types label differently.
        counter.inc(1, node=1)
        counter.inc(1, node=1.0)
        counter.inc(1, node=True)
        counter.inc(1, node="1")
        assert counter.value(node=1) == 2  # 1 and "1" both label as "1"
        assert counter.value(node=1.0) == 1
        assert counter.value(node=True) == 1
        counter.inc(1, node=[1])  # unhashable values still label by str()
        assert counter.value(node=[1]) == 1


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("inbox_depth")
        gauge.set(10, node=1)
        gauge.inc(5, node=1)
        gauge.dec(3, node=1)
        assert gauge.value(node=1) == 12


class TestHistogram:
    def test_cumulative_bucket_counts(self):
        hist = MetricsRegistry().histogram(
            "latency_seconds", buckets=[0.1, 0.5, 1.0]
        )
        for value in (0.05, 0.1, 0.3, 0.9, 4.0):
            hist.observe(value)
        counts = hist.bucket_counts()
        # Buckets are cumulative upper bounds: 0.1 catches 0.05 and the
        # boundary value 0.1 itself; +Inf catches everything.
        assert counts[0.1] == 2
        assert counts[0.5] == 3
        assert counts[1.0] == 4
        assert counts[math.inf] == 5
        assert hist.count() == 5
        assert hist.sum() == pytest.approx(5.35)

    def test_per_label_series(self):
        hist = MetricsRegistry().histogram("h", buckets=[1.0])
        hist.observe(0.5, device="disk")
        hist.observe(2.0, device="nic_in")
        assert hist.count(device="disk") == 1
        assert hist.bucket_counts(device="nic_in")[1.0] == 0
        assert hist.bucket_counts(device="nic_in")[math.inf] == 1

    def test_duplicate_buckets_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("h", buckets=[1.0, 1.0])

    def test_empty_buckets_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("h", buckets=[])


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")

    def test_concurrent_increments_lose_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total")
        hist = registry.histogram("h", buckets=[0.5])
        threads, per_thread = 8, 1000

        def worker(tid):
            for _ in range(per_thread):
                counter.inc(node=tid % 2)
                hist.observe(0.25)

        pool = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert counter.total() == threads * per_thread
        assert hist.count() == threads * per_thread
        assert hist.bucket_counts()[0.5] == threads * per_thread


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repair_actions_total").inc(3, method="migration")
    registry.counter("repair_actions_total").inc(2, method="reconstruction")
    registry.gauge("coordinator_epoch").set(1)
    hist = registry.histogram("repair_round_seconds", buckets=[0.1, 1.0])
    hist.observe(0.05)
    hist.observe(0.7)
    return registry


def _golden_registry() -> MetricsRegistry:
    """A fixed sequence of updates: repeated and reordered label sets,
    look-alike label values, unlabeled series."""
    registry = MetricsRegistry()
    sent = registry.counter("net_bytes_sent_total", "payload bytes sent, by node")
    depth = registry.gauge("net_inbox_depth", "inbox depth, by node")
    wait = registry.histogram(
        "ratelimiter_wait_seconds", "reservation wait", buckets=[0.001, 0.1]
    )
    for packet in range(6):
        sent.inc(65536, node=packet % 2)
        depth.set(packet, node=packet % 2)
        wait.observe(0.0005 * packet, device="nic_out", node=packet % 2)
        wait.observe(0.05, node=packet % 2, device="nic_out")
    sent.inc(1)
    sent.inc(2, node="1")
    sent.inc(3, node=1.0)
    sent.inc(4, node=True)
    sent.inc(5, src=0, dst=1)
    sent.inc(6, dst=1, src=0)
    depth.inc(2, node=0)
    depth.dec(1, node=0)
    wait.observe(7)
    return registry


class TestExposition:
    def test_output_matches_golden(self):
        """Both expositions byte for byte as before label sets were
        memoised (the golden files were written by that code)."""
        registry = _golden_registry()
        here = Path(__file__).parent
        assert (
            json.dumps(registry.to_dict(), indent=1, sort_keys=True) + "\n"
            == (here / "golden_metrics.json").read_text()
        )
        assert (
            registry.render_prometheus()
            == (here / "golden_metrics.prom").read_text()
        )

    def test_json_document_shape(self, tmp_path):
        registry = _populated_registry()
        path = tmp_path / "metrics.json"
        registry.save(path)
        doc = json.loads(path.read_text())
        assert doc["version"] == METRICS_SCHEMA_VERSION
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["repair_actions_total"]["type"] == "counter"
        samples = by_name["repair_actions_total"]["samples"]
        assert {s["labels"]["method"]: s["value"] for s in samples} == {
            "migration": 3,
            "reconstruction": 2,
        }

    def test_prometheus_output_parses(self):
        text = _populated_registry().render_prometheus()
        parsed = parse_prometheus(text)
        assert parsed["repair_actions_total"]['{method="migration"}'] == 3
        assert parsed["coordinator_epoch"][""] == 1
        buckets = parsed["repair_round_seconds_bucket"]
        assert buckets['{le="0.1"}'] == 1
        assert buckets['{le="1"}'] == 2
        assert buckets['{le="+Inf"}'] == 2
        assert parsed["repair_round_seconds_count"][""] == 2

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(1, path='a"b\\c\nd')
        parsed = parse_prometheus(registry.render_prometheus())
        assert sum(parsed["c"].values()) == 1

    def test_parser_rejects_garbage(self):
        with pytest.raises(MetricError):
            parse_prometheus("not a metric line at all!")
