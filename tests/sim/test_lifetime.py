"""Tests for the Monte-Carlo cluster-lifetime simulation."""

import random
from dataclasses import replace

import pytest

from repro.failure.predictor import ThresholdPredictor, first_alarm_day
from repro.failure.smart import SmartTraceGenerator
from repro.sim.lifetime import (
    DiskEvent,
    LifetimeConfig,
    TraceReplayProcess,
    WeibullFailureProcess,
    durability_study,
    run_lifetime,
)


class TestDiskEvent:
    def test_needs_some_event(self):
        with pytest.raises(ValueError, match="failure or an alarm"):
            DiskEvent(0, None, None)

    def test_alarm_must_precede_failure(self):
        with pytest.raises(ValueError, match="alarm_day"):
            DiskEvent(0, fail_day=10.0, alarm_day=12.0)

    def test_false_alarm_and_miss_are_legal(self):
        assert DiskEvent(0, None, 5.0).fail_day is None
        assert DiskEvent(0, 5.0, None).alarm_day is None


class TestWeibullProcess:
    def test_deterministic_per_seed(self):
        process = WeibullFailureProcess(annual_failure_rate=0.2)
        a = process.events(random.Random(1), 20, 365.0)
        b = process.events(random.Random(1), 20, 365.0)
        assert a == b

    def test_failure_rate_roughly_matches_afr(self):
        # With shape ~1, failures per disk-year ~ AFR; check the scale
        # calibration lands within a loose statistical band.
        afr = 0.2
        process = WeibullFailureProcess(
            annual_failure_rate=afr, detection_rate=0.0, false_alarm_rate=0.0
        )
        events = process.events(random.Random(3), 500, 365.0)
        failures = sum(1 for e in events if e.fail_day is not None)
        assert 0.5 * afr * 500 < failures < 2.0 * afr * 500

    def test_alarms_lead_failures(self):
        process = WeibullFailureProcess(
            annual_failure_rate=0.5, detection_rate=1.0, lead_days=10.0
        )
        events = process.events(random.Random(7), 50, 365.0)
        predicted = [e for e in events if e.fail_day and e.alarm_day]
        assert predicted
        for event in predicted:
            assert event.alarm_day <= event.fail_day

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            WeibullFailureProcess(shape=0.0)
        with pytest.raises(ValueError, match="annual_failure_rate"):
            WeibullFailureProcess(annual_failure_rate=1.5)


class TestTraceReplayProcess:
    @pytest.fixture(scope="class")
    def traces(self):
        return SmartTraceGenerator(
            num_disks=80, annual_failure_rate=0.3, seed=11
        ).generate()

    def test_alarm_days_come_from_the_predictor(self, traces):
        predictor = ThresholdPredictor()
        process = TraceReplayProcess(traces, predictor)
        spans = {}
        for trace in traces:
            alarm = first_alarm_day(predictor, trace)
            if trace.failure_day is not None and alarm is not None:
                spans[trace.disk_id] = (alarm, trace.failure_day)
        events = process.events(random.Random(5), 30, 365.0)
        predicted = [e for e in events if e.fail_day and e.alarm_day]
        assert predicted  # a 30% AFR fleet predicts *something*
        for event in predicted:
            assert event.alarm_day < event.fail_day

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            TraceReplayProcess([], ThresholdPredictor())

    def test_tiles_past_the_trace_span(self, traces):
        process = TraceReplayProcess(traces, ThresholdPredictor())
        events = process.events(random.Random(9), 10, 5 * 365.0)
        # A 120-day fleet only covers 5 years by tiling replacements.
        assert any(e.fail_day and e.fail_day > 365.0 for e in events)


AGGRESSIVE = LifetimeConfig(
    num_disks=12,
    num_stripes=60,
    n=6,
    k=5,
    years=2.0,
    repair_concurrency=1,
    reactive_repair_days=12.0,
    replacement_delay_days=3.0,
    predictive_repair_days=0.5,
)


class TestRunLifetime:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="k < n"):
            LifetimeConfig(n=3, k=3)
        with pytest.raises(ValueError, match="disks"):
            LifetimeConfig(num_disks=5, n=9, k=6)
        with pytest.raises(ValueError, match="concurrency"):
            LifetimeConfig(repair_concurrency=0)

    def test_placement_shared_across_trials(self):
        config = LifetimeConfig(num_disks=12, num_stripes=10, n=9, k=6)
        assert config.placement() == config.placement()
        for disks in config.placement():
            assert len(set(disks)) == config.n

    def test_deterministic_per_seed(self):
        process = WeibullFailureProcess(annual_failure_rate=0.3)
        config = LifetimeConfig(num_disks=12, num_stripes=30, n=9, k=6)
        a = run_lifetime(process, config, trials=5, seed=4)
        b = run_lifetime(process, config, trials=5, seed=4)
        assert a.to_dict() == b.to_dict()

    def test_predictive_repair_cuts_exposure_and_loss(self):
        process = WeibullFailureProcess(
            annual_failure_rate=0.5, detection_rate=0.97, lead_days=20.0
        )
        predictive = run_lifetime(process, AGGRESSIVE, trials=15, seed=9)
        reactive = run_lifetime(
            process, replace(AGGRESSIVE, predictive=False), trials=15, seed=9
        )
        # Under slow single-crew repair and a hot failure process, the
        # paper's mechanism is the difference between losing stripes
        # and not: alarms drain disks before they die.
        assert reactive.lost_stripe_probability > 0
        assert (
            predictive.lost_stripe_probability
            < reactive.lost_stripe_probability
        )
        assert (
            predictive.mean_chunk_days_at_risk
            < reactive.mean_chunk_days_at_risk
        )

    def test_reactive_mode_ignores_alarms(self):
        process = WeibullFailureProcess(
            annual_failure_rate=0.4, detection_rate=1.0
        )
        config = replace(AGGRESSIVE, predictive=False)
        report = run_lifetime(process, config, trials=5, seed=2)
        totals = {}
        for result in report.results:
            for kind, count in result.repairs_completed.items():
                totals[kind] = totals.get(kind, 0) + count
        assert totals.get("predictive", 0) == 0
        assert totals.get("reactive", 0) > 0

    def test_queue_depth_tracked_under_contention(self):
        process = WeibullFailureProcess(annual_failure_rate=0.6)
        report = run_lifetime(process, AGGRESSIVE, trials=5, seed=6)
        assert report.max_queue_depth >= 1
        assert report.mean_max_queue_depth > 0

    def test_latent_errors_found_by_scrub(self):
        config = LifetimeConfig(
            num_disks=12,
            num_stripes=40,
            n=6,
            k=5,
            years=1.0,
            latent_errors_per_disk_year=2.0,
            scrub_interval_days=10.0,
        )
        process = WeibullFailureProcess(annual_failure_rate=0.05)
        report = run_lifetime(process, config, trials=5, seed=8)
        latent = sum(r.latent_errors for r in report.results)
        detected = sum(r.scrub_detections for r in report.results)
        chunk_repairs = sum(
            r.repairs_completed.get("chunk", 0) for r in report.results
        )
        assert latent > 0
        assert 0 < detected <= latent
        assert chunk_repairs > 0

    def test_unscrubbed_latent_errors_accumulate_risk(self):
        base = LifetimeConfig(
            num_disks=12,
            num_stripes=40,
            n=6,
            k=5,
            years=1.0,
            latent_errors_per_disk_year=2.0,
            scrub_interval_days=5.0,
        )
        process = WeibullFailureProcess(annual_failure_rate=0.05)
        scrubbed = run_lifetime(process, base, trials=5, seed=8)
        unscrubbed = run_lifetime(
            process, replace(base, scrub_interval_days=0.0), trials=5, seed=8
        )
        assert (
            unscrubbed.mean_chunk_days_at_risk
            > scrubbed.mean_chunk_days_at_risk
        )

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError, match="trials"):
            run_lifetime(
                WeibullFailureProcess(), LifetimeConfig(), trials=0
            )

    def test_report_dict_shape(self):
        process = WeibullFailureProcess(annual_failure_rate=0.2)
        config = LifetimeConfig(num_disks=12, num_stripes=20, n=9, k=6)
        document = run_lifetime(process, config, trials=3, seed=1).to_dict()
        for key in (
            "process",
            "predictive",
            "trials",
            "lost_stripe_probability",
            "mean_chunk_days_at_risk",
            "max_queue_depth",
            "disk_failures",
            "repairs_completed",
        ):
            assert key in document
        assert document["trials"] == 3
        assert "summary" not in document


class _AlarmThenFailure:
    """Disk 0 is flagged at day 10.0 and dies half a day later."""

    name = "alarm-then-failure"

    def events(self, rng, num_disks, horizon_days):
        return [DiskEvent(0, fail_day=10.5, alarm_day=10.0)]


class TestDrainRace:
    """A predictive drain either beats the failure it was warned of, or
    the disk's stripes sit below full redundancy from the failure until
    the drain completes."""

    @pytest.mark.parametrize(
        "drain_days, days_exposed",
        [(2.0, 1.5), (0.25, 0.0)],
        ids=["drain-outlives-disk", "drain-beats-failure"],
    )
    def test_chunk_days_at_risk(self, drain_days, days_exposed):
        config = LifetimeConfig(
            num_disks=12, num_stripes=30, predictive_repair_days=drain_days
        )
        on_disk_0 = sum(0 in disks for disks in config.placement())
        assert on_disk_0 > 0
        report = run_lifetime(_AlarmThenFailure(), config, trials=1)
        assert report.mean_chunk_days_at_risk == pytest.approx(
            days_exposed * on_disk_0
        )
        assert report.lost_stripe_probability == 0.0


class _AlarmBehindTwoFailures:
    """Disk 0 dies at day 5; disk 1 is flagged (falsely) at day 5.5 and
    disk 2 dies at day 5.6, while disk 0's rebuild holds the one slot."""

    name = "alarm-behind-two-failures"

    def events(self, rng, num_disks, horizon_days):
        return [
            DiskEvent(0, fail_day=5.0, alarm_day=None),
            DiskEvent(1, fail_day=None, alarm_day=5.5),
            DiskEvent(2, fail_day=5.6, alarm_day=None),
        ]


class TestDegradationPolicy:
    def test_slot_given_to_reactive_work_defers_the_waiting_drain(self):
        # Disk 0's rebuild ends at day 6.25 with disk 1's drain and disk
        # 2's rebuild both queued: the slot goes to the rebuild, and the
        # drain defers once.  It then runs when disk 2's rebuild ends.
        config = LifetimeConfig(
            num_disks=12, num_stripes=30, repair_concurrency=1
        )
        report = run_lifetime(_AlarmBehindTwoFailures(), config, trials=1)
        (result,) = report.results
        assert result.predictive_deferrals == 1
        assert result.repairs_completed == {"reactive": 2, "predictive": 1}


class TestDurabilityStudy:
    def test_both_modes_per_process(self):
        traces = SmartTraceGenerator(
            num_disks=40, annual_failure_rate=0.3, seed=3
        ).generate()
        processes = [
            WeibullFailureProcess(annual_failure_rate=0.1),
            TraceReplayProcess(traces, ThresholdPredictor()),
        ]
        config = LifetimeConfig(num_disks=12, num_stripes=30, n=9, k=6)
        entries = durability_study(processes, config, trials=3, seed=2)
        assert [e["process"] for e in entries] == ["weibull", "trace-replay"]
        for entry in entries:
            assert entry["predictive"]["predictive"] is True
            assert entry["reactive"]["predictive"] is False
            assert entry["predictive"]["trials"] == 3
