"""Deterministic event loop."""

import pytest

from repro.errors import SimulationError
from repro.simnet.eventloop import EventLoop


class TestScheduling:
    def test_runs_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(30.0, lambda: fired.append("c"))
        loop.schedule_at(10.0, lambda: fired.append("a"))
        loop.schedule_at(20.0, lambda: fired.append("b"))
        loop.run_until(100.0)
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        loop = EventLoop()
        fired = []
        for name in "abc":
            loop.schedule_at(5.0, lambda n=name: fired.append(n))
        loop.run_until(5.0)
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_times(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(7.5, lambda: seen.append(loop.now()))
        loop.run_until(100.0)
        assert seen == [7.5]
        assert loop.now() == 100.0

    def test_relative_schedule(self):
        loop = EventLoop(start_ms=50.0)
        seen = []
        loop.schedule(25.0, lambda: seen.append(loop.now()))
        loop.run_until(100.0)
        assert seen == [75.0]

    def test_past_scheduling_rejected(self):
        loop = EventLoop(start_ms=10.0)
        with pytest.raises(SimulationError):
            loop.schedule_at(5.0, lambda: None)
        with pytest.raises(SimulationError):
            loop.schedule(-1.0, lambda: None)

    def test_events_can_schedule_events(self):
        loop = EventLoop()
        fired = []

        def chain(n: int) -> None:
            fired.append(loop.now())
            if n > 0:
                loop.schedule(10.0, lambda: chain(n - 1))

        loop.schedule_at(0.0, lambda: chain(3))
        loop.run_until(100.0)
        assert fired == [0.0, 10.0, 20.0, 30.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        loop = EventLoop()
        fired = []
        token = loop.schedule_at(10.0, lambda: fired.append("x"))
        loop.cancel(token)
        loop.run_until(100.0)
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        loop = EventLoop()
        token = loop.schedule_at(1.0, lambda: None)
        loop.run_until(10.0)
        loop.cancel(token)  # should not raise
        loop.run_until(20.0)

    def test_peek_skips_cancelled(self):
        loop = EventLoop()
        token = loop.schedule_at(5.0, lambda: None)
        loop.schedule_at(9.0, lambda: None)
        loop.cancel(token)
        assert loop.peek_time() == 9.0


class TestCancellationBookkeeping:
    """pending counts live events only; cancel after fire leaves no residue."""

    def test_pending_excludes_cancelled(self):
        loop = EventLoop()
        first = loop.schedule_at(10.0, lambda: None)
        loop.schedule_at(20.0, lambda: None)
        assert loop.pending == 2
        loop.cancel(first)
        assert loop.pending == 1
        loop.run_until(30.0)
        assert loop.pending == 0

    def test_cancel_after_fire_leaves_no_residue(self):
        loop = EventLoop()
        tokens = [loop.schedule_at(float(i + 1), lambda: None) for i in range(5)]
        loop.run_until(10.0)
        for token in tokens:
            loop.cancel(token)  # true no-op: the events already fired
        assert loop.pending == 0
        # A later event with a recycled-looking schedule still fires.
        fired = []
        loop.schedule(1.0, lambda: fired.append(1))
        loop.run_for(5.0)
        assert fired == [1]

    def test_churn_does_not_accumulate_state(self):
        """The _Ticker.kick pattern: schedule, fire, cancel stale token."""
        loop = EventLoop()
        for _ in range(1000):
            token = loop.schedule(1.0, lambda: None)
            loop.run_for(2.0)
            loop.cancel(token)  # always after the fire
        assert loop.pending == 0
        assert len(loop.timers._live) == 0
        assert len(loop.timers._heap) == 0


class TestRunModes:
    def test_run_until_partial(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(10.0, lambda: fired.append(1))
        loop.schedule_at(50.0, lambda: fired.append(2))
        loop.run_until(20.0)
        assert fired == [1]
        loop.run_until(60.0)
        assert fired == [1, 2]

    def test_run_for(self):
        loop = EventLoop(start_ms=100.0)
        loop.run_for(40.0)
        assert loop.now() == 140.0

    def test_run_until_idle_drains(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(1.0, lambda: fired.append(1))
        loop.run_until_idle()
        assert fired == [1]

    def test_run_until_idle_bounds_runaway(self):
        loop = EventLoop()

        def forever() -> None:
            loop.schedule(1.0, forever)

        loop.schedule_at(0.0, forever)
        with pytest.raises(SimulationError):
            loop.run_until_idle(max_events=100)
