"""Unit tests for the discrete-event scheduler and simulated clocks."""

from __future__ import annotations

import pytest

from repro.common import SimulationError
from repro.sim.clock import SimulatedClock
from repro.sim.events import EventScheduler


class TestClocks:
    def test_simulated_clock_only_moves_forward(self):
        clock = SimulatedClock()
        clock._advance_to(3.0)
        with pytest.raises(SimulationError):
            clock._advance_to(2.0)


class TestEventScheduler:
    def test_events_run_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule_at(2.0, lambda: order.append("b"))
        scheduler.schedule_at(1.0, lambda: order.append("a"))
        scheduler.schedule_at(3.0, lambda: order.append("c"))
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        scheduler = EventScheduler()
        order = []
        for name in "abc":
            scheduler.schedule_at(1.0, lambda n=name: order.append(n))
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule_after(5.0, lambda: seen.append(scheduler.now()))
        scheduler.run()
        assert seen == [5.0]

    def test_cannot_schedule_in_the_past(self):
        scheduler = EventScheduler(start_time=10.0)
        with pytest.raises(SimulationError):
            scheduler.schedule_at(5.0, lambda: None)
        with pytest.raises(SimulationError):
            scheduler.schedule_after(-1.0, lambda: None)

    def test_cancelled_events_do_not_run(self):
        scheduler = EventScheduler()
        ran = []
        handle = scheduler.schedule_after(1.0, lambda: ran.append(1))
        handle.cancel()
        scheduler.run()
        assert ran == []
        assert handle.cancelled

    def test_events_scheduled_during_execution_run(self):
        scheduler = EventScheduler()
        order = []

        def first():
            order.append("first")
            scheduler.schedule_after(1.0, lambda: order.append("second"))

        scheduler.schedule_after(1.0, first)
        scheduler.run()
        assert order == ["first", "second"]

    def test_run_until_stops_at_deadline(self):
        scheduler = EventScheduler()
        ran = []
        scheduler.schedule_at(1.0, lambda: ran.append(1))
        scheduler.schedule_at(10.0, lambda: ran.append(2))
        scheduler.run_until(5.0)
        assert ran == [1]
        assert scheduler.now() == 5.0
        assert scheduler.pending_events == 1

    def test_background_events_alone_do_not_keep_run_going(self):
        scheduler = EventScheduler()
        ticks = []

        def tick():
            ticks.append(scheduler.now())
            scheduler.schedule_after(1.0, tick, background=True)

        scheduler.schedule_after(1.0, tick, background=True)
        scheduler.schedule_at(2.5, lambda: None)
        scheduler.run()  # a re-arming timer, yet run() returns
        assert ticks == [1.0, 2.0]
        scheduler.run()
        assert ticks == [1.0, 2.0]
        scheduler.run_until(4.0)  # a deadline runs them like any event
        assert ticks == [1.0, 2.0, 3.0, 4.0]

    def test_run_max_events(self):
        scheduler = EventScheduler()
        for i in range(5):
            scheduler.schedule_at(float(i + 1), lambda: None)
        processed = scheduler.run(max_events=3)
        assert processed == 3
        assert scheduler.pending_events == 2

    def test_run_until_condition(self):
        scheduler = EventScheduler()
        counter = {"n": 0}

        def bump():
            counter["n"] += 1

        for i in range(10):
            scheduler.schedule_at(float(i + 1), bump)
        reached = scheduler.run_until_condition(lambda: counter["n"] >= 4, max_time=100)
        assert reached
        assert counter["n"] >= 4

    def test_run_until_condition_times_out(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(50.0, lambda: None)
        reached = scheduler.run_until_condition(lambda: False, max_time=10.0)
        assert not reached

    def test_periodic_scheduling_and_stop(self):
        scheduler = EventScheduler()
        ticks = []
        stop = scheduler.schedule_periodic(1.0, lambda: ticks.append(scheduler.now()))
        scheduler.run_until(3.5)
        assert ticks == [1.0, 2.0, 3.0]
        stop()
        scheduler.run_until(10.0)
        assert len(ticks) == 3

    def test_periodic_rejects_non_positive_interval(self):
        scheduler = EventScheduler()
        with pytest.raises(SimulationError):
            scheduler.schedule_periodic(0.0, lambda: None)

    def test_events_processed_counter(self):
        scheduler = EventScheduler()
        scheduler.schedule_after(1.0, lambda: None)
        scheduler.schedule_after(2.0, lambda: None)
        scheduler.run()
        assert scheduler.events_processed == 2
