"""Tests for the discrete-event scheduler."""

import pytest

from repro.sim.events import Simulation, SimulationError


class TestSimulationSchedule:
    def test_schedule_at_runs_in_time_order(self):
        sim = Simulation()
        seen = []
        sim.schedule_at(2.0, lambda: seen.append("b"))
        sim.schedule_at(1.0, lambda: seen.append("a"))
        sim.run()
        assert seen == ["a", "b"]

    def test_schedule_in_past_rejected(self):
        sim = Simulation()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="cannot schedule"):
            sim.schedule_at(1.0, lambda: None)

    def test_equal_times_fire_fifo(self):
        sim = Simulation()
        seen = []
        for name in "cab":
            sim.schedule_at(1.0, lambda name=name: seen.append(name))
        sim.run()
        assert seen == ["c", "a", "b"]

    def test_callback_can_schedule_at_now(self):
        sim = Simulation()
        seen = []

        def first():
            seen.append(("first", sim.now))
            sim.schedule_at(sim.now, lambda: seen.append(("then", sim.now)))

        sim.schedule_at(4.0, first)
        assert sim.run() == 4.0
        assert seen == [("first", 4.0), ("then", 4.0)]

    def test_run_until_leaves_later_events_queued(self):
        sim = Simulation()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(1))
        sim.schedule_at(10.0, lambda: seen.append(10))
        assert sim.run_until(5.0) == 5.0
        assert seen == [1]
        sim.run()
        assert seen == [1, 10]

    def test_run_until_fires_events_at_the_deadline(self):
        sim = Simulation()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(5))
        assert sim.run_until(5.0) == 5.0
        assert seen == [5]
