"""Discrete-event scheduler with a simulated millisecond clock.

Events fire in timestamp order; ties break by scheduling order, which makes
every simulation fully deterministic for a given seed and call sequence.

The loop is a :class:`SimulatedClock` over the shared scheduler core,
:class:`~repro.runtime.timerwheel.TimerQueue` — the same queue the real
``select()`` reactor runs on — so near-term events sit on its precise
heap and coarse ones in its timer wheel with identical firing order.
"""

from __future__ import annotations

from typing import Callable

from repro.clock import SimulatedClock
from repro.errors import SimulationError
from repro.runtime.timerwheel import TimerQueue

Callback = Callable[[], None]


class EventLoop:
    """A priority-queue event loop driving a :class:`SimulatedClock`."""

    def __init__(self, start_ms: float = 0.0, timer_wheel: bool = True) -> None:
        self.clock = SimulatedClock(start_ms)
        #: The scheduler core; a :class:`~repro.runtime.SimReactor` on
        #: this loop schedules into the same queue.
        self.timers = TimerQueue(wheel=timer_wheel)

    def now(self) -> float:
        return self.clock.now()

    def schedule_at(self, when_ms: float, callback: Callback) -> int:
        """Schedule ``callback`` at absolute time; returns a cancel token."""
        now = self.clock.now()
        if when_ms < now:
            raise SimulationError(
                f"cannot schedule in the past: now={now} when={when_ms}"
            )
        return self.timers.push(when_ms, now, callback)

    def schedule(self, delay_ms: float, callback: Callback) -> int:
        """Schedule ``callback`` after a relative delay."""
        if delay_ms < 0:
            raise SimulationError(f"negative delay {delay_ms}")
        return self.schedule_at(self.clock.now() + delay_ms, callback)

    def cancel(self, token: int) -> None:
        """Cancel a scheduled event (no-op if it already fired)."""
        self.timers.cancel(token)

    @property
    def pending(self) -> int:
        """Number of live (scheduled, uncancelled, unfired) events."""
        return len(self.timers)

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the queue is empty."""
        return self.timers.peek()

    def add_flush_hook(self, hook: Callable[[], int]) -> None:
        """Register a tick-boundary flush hook.

        Hooks run (see :meth:`TimerQueue.flush`) before the clock advances
        past the current timestamp, so batched sends/receives hit the wire
        at the same simulated instant they were queued.
        """
        self.timers.add_flush_hook(hook)

    def _pop_and_run(self) -> None:
        when, callback = self.timers.pop()
        self.clock.advance_to(when)
        callback()

    def run_until(self, when_ms: float) -> None:
        """Run all events with time <= ``when_ms``, then set now to it.

        Flush hooks fire whenever the clock is about to advance (and once
        at the end), so every event sharing a timestamp contributes to
        one batch and the batch drains before simulated time moves on.
        """
        peek = self.timers.peek
        while True:
            next_time = peek()
            if (
                next_time is None
                or next_time > when_ms
                or next_time > self.clock.now()
            ):
                # Tick boundary: drain batched work before the clock
                # advances (or before returning). The flush may schedule
                # new events — deliveries, retransmit timers — so re-peek
                # and keep going if any now fall inside the window.
                self.timers.flush()
                next_time = peek()
                if next_time is None or next_time > when_ms:
                    break
            self._pop_and_run()
        if when_ms > self.clock.now():
            self.clock.advance_to(when_ms)

    def run_for(self, duration_ms: float) -> None:
        """Run events for a relative duration."""
        self.run_until(self.clock.now() + duration_ms)

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Drain the queue completely (bounded by ``max_events``)."""
        for _ in range(max_events):
            next_time = self.peek_time()
            if next_time is None or next_time > self.clock.now():
                # Tick boundary (same contract as run_until): flush
                # batched work before advancing, and only stop once a
                # flush produces no new events.
                self.timers.flush()
                if self.peek_time() is None:
                    return
            self._pop_and_run()
        raise SimulationError(f"event loop still busy after {max_events} events")
