"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_time_ordering(self):
        sim = Simulator()
        order = []
        sim.schedule_at(5.0, lambda: order.append("b"))
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_at(9.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_for_equal_times(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.schedule_at(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_for_equal_times_with_args(self):
        """Arguments ride in the entry; same-time events still run in
        scheduling order, across both entry points, and arguments are
        never compared (dicts would raise)."""
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.schedule_at(1.0, order.append, {"tag": tag})
        sim.schedule_in(1.0, order.append, {"tag": "d"})
        sim.schedule_at(1.0, lambda *args: order.append(args), 1, "x", None)
        sim.run()
        assert order == [{"tag": t} for t in "abcd"] + [(1, "x", None)]

    def test_schedule_in_relative(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(10.0, lambda: sim.schedule_in(5.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [15.0]

    def test_now_advances(self):
        sim = Simulator()
        sim.schedule_at(4.0, lambda: None)
        sim.run()
        assert sim.now == 4.0

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.schedule_at(10.0, lambda: sim.schedule_at(5.0, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="negative delay"):
            sim.schedule_in(-1.0, lambda: None)
        with pytest.raises(SimulationError, match="negative delay"):
            sim.schedule_in(-1e-300, lambda: None)
        assert sim.pending_events == 0
        sim.schedule_in(0.0, lambda: None)  # zero is a delay, not the past
        assert sim.pending_events == 1

    def test_nan_time_rejected(self):
        """A NaN time compares false both ways: unchecked, it would run
        first and leave the clock at NaN."""
        sim = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule_in(float("nan"), lambda: None)
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule_timer(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_nan_never_reorders_later_events(self):
        sim = Simulator()
        order = []
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), order.append, "at-nan")
        sim.schedule_in(5.0, order.append, "five")
        sim.run()
        assert order == ["five"]
        assert sim.now == 5.0

    def test_schedule_in_and_at_share_one_sequence(self):
        """``schedule_in`` pushes its own entry; it must order against
        ``schedule_at`` exactly as the ``schedule_at`` call it replaced:
        by time, then by scheduling order across both entry points."""
        sim = Simulator()
        order = []

        def at_ten() -> None:
            for tag, delay in (("in-a", 5.0), ("in-b", 0.0), ("in-c", 5.0)):
                sim.schedule_in(delay, lambda t=tag: order.append((t, sim.now)))
            sim.schedule_at(15.0, lambda: order.append(("at-d", sim.now)))
            sim.schedule_in(5.0, lambda: order.append(("in-e", sim.now)))
            sim.schedule_at(10.0, lambda: order.append(("at-f", sim.now)))

        sim.schedule_at(10.0, at_ten)
        sim.run()
        assert order == [
            ("in-b", 10.0), ("at-f", 10.0),
            ("in-a", 15.0), ("in-c", 15.0), ("at-d", 15.0), ("in-e", 15.0),
        ]


class TestTimer:
    def test_one_shot_fires_once(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule_timer(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]
        assert timer.fired == 1
        assert not timer._cancelled

    def test_cancel_before_firing(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule_timer(5.0, lambda: fired.append(sim.now))
        timer.cancel()
        sim.run()
        assert fired == []
        assert timer.fired == 0

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        timer = sim.schedule_timer(5.0, lambda: None)
        timer.cancel()
        timer.cancel()
        sim.run()
        assert timer._cancelled

    def test_recurring_fires_until_cancelled(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule_timer(
            5.0, lambda: fired.append(sim.now), interval_ms=10.0
        )
        sim.run(until_ms=40.0)
        timer.cancel()
        sim.run()
        assert fired == [5.0, 15.0, 25.0, 35.0]

    def test_recurring_cancel_from_inside_callback(self):
        sim = Simulator()
        fired = []
        timer = sim.schedule_timer(
            1.0, lambda: (fired.append(sim.now), timer.cancel()),
            interval_ms=1.0,
        )
        sim.run()
        assert fired == [1.0]

    def test_non_positive_interval_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_timer(1.0, lambda: None, interval_ms=0.0)
        with pytest.raises(SimulationError):
            Simulator().schedule_timer(1.0, lambda: None, interval_ms=float("nan"))

    def test_one_shot_passes_its_args(self):
        sim = Simulator()
        fired = []
        sim.schedule_timer(5.0, lambda *args: fired.append(args), "a", 2)
        sim.run()
        assert fired == [("a", 2)]

    def test_recurring_passes_the_same_args_on_every_firing(self):
        sim = Simulator()
        fired = []
        payload = {"site": 3}
        timer = sim.schedule_timer(
            5.0,
            lambda site, entry: fired.append((sim.now, site, entry)),
            3,
            payload,
            interval_ms=10.0,
        )
        sim.run(until_ms=30.0)
        timer.cancel()
        sim.run()
        assert fired == [(5.0, 3, payload), (15.0, 3, payload), (25.0, 3, payload)]
        assert all(entry is payload for _, _, entry in fired)

    def test_recurring_with_args_cancel_from_inside_callback(self):
        sim = Simulator()
        fired = []

        def beat(site: int) -> None:
            fired.append((sim.now, site))
            if len(fired) == 2:
                timer.cancel()

        timer = sim.schedule_timer(1.0, beat, 7, interval_ms=1.0)
        sim.run()
        assert fired == [(1.0, 7), (2.0, 7)]
        assert timer.fired == 2 and timer._cancelled

    def test_interval_is_keyword_only(self):
        """A positional number after the callback is an argument to the
        callback, never an interval: the timer stays one-shot."""
        sim = Simulator()
        fired = []
        timer = sim.schedule_timer(1.0, fired.append, 10.0)
        sim.run()
        assert fired == [10.0]
        assert timer.interval_ms is None and timer.fired == 1

    def test_cancelled_event_is_noop_not_removed(self):
        # Cancellation is lazy: the heap entry stays and pops as a no-op.
        sim = Simulator()
        timer = sim.schedule_timer(5.0, lambda: None)
        timer.cancel()
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0


class TestRun:
    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(1))
        sim.schedule_at(10.0, lambda: seen.append(10))
        executed = sim.run(until_ms=5.0)
        assert executed == 1
        assert seen == [1]
        assert sim.pending_events == 1
        assert sim.now == 5.0

    def test_run_until_nan_rejected(self):
        """Every comparison with NaN is false, so an unchecked NaN bound
        would drain the whole queue."""
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, seen.append, 5)
        sim.schedule_at(50.0, seen.append, 50)
        with pytest.raises(SimulationError, match="nan"):
            sim.run(until_ms=float("nan"))
        assert seen == [] and sim.pending_events == 2 and sim.now == 0.0
        sim.run(until_ms=10.0)  # a failed call leaves the engine usable
        assert seen == [5]

    def test_resume_after_until(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(10.0, lambda: seen.append(10))
        sim.run(until_ms=5.0)
        sim.run()
        assert seen == [10]

    def test_event_counters(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule_at(float(t), lambda: None)
        sim.run()
        assert sim.processed_events == 5

    def test_runaway_guard(self):
        sim = Simulator()

        def reschedule():
            sim.schedule_in(1.0, reschedule)

        sim.schedule_at(0.0, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_runaway_guard_runs_exactly_max_events_callbacks(self):
        sim = Simulator()
        ran = []

        def reschedule():
            ran.append(sim.now)
            sim.schedule_in(1.0, reschedule)

        sim.schedule_at(0.0, reschedule)
        with pytest.raises(SimulationError, match="max_events=100"):
            sim.run(max_events=100)
        assert len(ran) == 100
        assert sim.processed_events == 100
        # The 101st event was never popped: it is still there to run.
        assert sim.pending_events == 1

    def test_a_queue_of_exactly_max_events_drains_without_raising(self):
        sim = Simulator()
        for t in range(100):
            sim.schedule_at(float(t), lambda: None)
        assert sim.run(max_events=100) == 100
        assert sim.processed_events == 100 and sim.pending_events == 0

    def test_a_raising_callback_still_counts_as_processed(self):
        """``processed_events + pending_events`` is the number of events
        ever scheduled, also when a callback raises mid-run."""
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, boom)
        sim.schedule_at(3.0, lambda: None)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert sim.processed_events == 2
        assert sim.processed_events + sim.pending_events == 3
        assert sim.now == 2.0
        assert sim.run() == 1  # the engine is usable after the failure
        assert sim.processed_events == 3 and sim.pending_events == 0

    def test_not_reentrant(self):
        sim = Simulator()
        failures = []

        def nested():
            try:
                sim.run()
            except SimulationError:
                failures.append(True)

        sim.schedule_at(0.0, nested)
        sim.run()
        assert failures == [True]
