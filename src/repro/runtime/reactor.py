"""Reactors: timers + I/O readiness + observability, simulated or real.

A reactor is the runtime's notion of "the select() loop": a clock, the
shared scheduler core (:class:`~repro.runtime.timerwheel.TimerQueue`:
timers with O(1) lazy cancellation plus tick-boundary flush hooks),
optional file-descriptor readiness sources, and the session's
observability substrate — a :class:`~repro.obs.MetricsRegistry` plus a
:class:`~repro.obs.SpanTracer` timed by this reactor's clock, so
simulated-time and wall-time sessions produce comparable traces.

:class:`ReactorMetrics` survives as the legacy attribute API: every
counter it exposes is now a thin view over a named registry instrument,
so ``reactor.metrics.ticks += 1`` and
``reactor.registry.counter("reactor.ticks")`` read and write the same
number. The datagram and crypto counters are pulled: they sum the
attached endpoints' own counts when read.

Session cores (:mod:`repro.session.core`) are written against the abstract
:class:`Reactor` only; whether time is simulated or real is decided by the
shell that assembles the session.
"""

from __future__ import annotations

import select
from abc import ABC, abstractmethod
from functools import partial
from operator import attrgetter
from typing import Callable

from repro.clock import Clock, RealClock
from repro.crypto.session import CryptoStats
from repro.errors import ReactorError
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import SpanTracer
from repro.runtime.timerwheel import TimerQueue
from repro.simnet.eventloop import EventLoop

Callback = Callable[[], None]


class ReactorMetrics:
    """Attribute views over the registry's per-reactor counters.

    The old always-on counter block, re-homed: each attribute is a
    property backed by a named :class:`~repro.obs.Counter`, so existing
    callers (``metrics.ticks += 1``, dashboards reading
    ``metrics.auth_failures``) keep working while every value also
    appears in ``registry.snapshot()`` under its qualified name.

    The :data:`PULLED` counters are read-only fleet sums: each reads
    every endpoint a pump attached, plus the final counts of endpoints
    retired when their sessions closed. Exact whenever read, they never
    fall and cost the tick path nothing.
    """

    #: attribute -> registry counter name.
    COUNTERS = {
        "ticks": "reactor.ticks",
        "datagrams_in": "reactor.datagrams_in",
        "datagrams_out": "reactor.datagrams_out",
        "timers_fired": "reactor.timers_fired",
        "timers_cancelled": "reactor.timers_cancelled",
        "io_events": "reactor.io_events",
        "frames_rendered": "reactor.frames_rendered",
        "datagrams_sealed": "crypto.datagrams_sealed",
        "bytes_sealed": "crypto.bytes_sealed",
        "datagrams_unsealed": "crypto.datagrams_unsealed",
        "bytes_unsealed": "crypto.bytes_unsealed",
        "auth_failures": "crypto.auth_failures",
        "replay_drops": "crypto.replay_drops",
        "framing_drops": "network.framing_drops",
    }

    #: Pulled attribute -> reader of the endpoint count it sums:
    #: authentic datagrams in, sealed datagrams out, the session's crypto
    #: counts (tag failures and replay-window drops among them), and
    #: datagrams dropped before decryption for bad mux framing.
    PULLED = {
        "datagrams_in": attrgetter("datagrams_received"),
        "datagrams_out": attrgetter("datagrams_sent"),
        **{n: attrgetter(f"session.stats.{n}") for n in CryptoStats.COUNTER_NAMES},
        "framing_drops": attrgetter("framing_drops"),
    }

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Final counts of the endpoints retired so far.
        self._retired = dict.fromkeys(self.PULLED, 0)
        self._live: dict = {}  # attached endpoints, as an ordered set
        self._counters = {
            attr: self.registry.counter(
                name, fn=partial(self._pulled, attr) if attr in self.PULLED else None
            )
            for attr, name in self.COUNTERS.items()
        }
        #: Lateness of timer callbacks (fire time minus scheduled time).
        self.timer_lag = self.registry.histogram("reactor.timer_lag_ms")
        self._timers_fired = self._counters["timers_fired"]

    def _pulled(self, attr: str) -> int:
        return self._retired[attr] + sum(map(self.PULLED[attr], self._live))

    def attach(self, endpoint) -> None:
        """Count ``endpoint`` (once, however many pumps attach it)."""
        self._live[endpoint] = None

    def retire(self, endpoint) -> None:
        """Fold ``endpoint``'s final counts into the retired totals."""
        if endpoint in self._live:
            del self._live[endpoint]
            for attr, read in self.PULLED.items():
                self._retired[attr] += read(endpoint)

    @property
    def timer_lag_avg_ms(self) -> float:
        return self.timer_lag.mean

    @property
    def timer_lag_total_ms(self) -> float:
        return self.timer_lag.total

    @property
    def timer_lag_max_ms(self) -> float:
        return self.timer_lag.max

    def note_timer_fired(self, lag_ms: float) -> None:
        self._timers_fired.value += 1
        self.timer_lag.record(lag_ms)

    def snapshot(self) -> dict[str, float]:
        """The legacy flat-dict view for dashboards and logs.

        ``registry.snapshot()`` is the full structured document; this
        keeps the original key set (plus ``replay_drops``) stable.
        """
        out = {attr: counter.value for attr, counter in self._counters.items()}
        del out["framing_drops"]
        out["timer_lag_avg_ms"] = round(self.timer_lag_avg_ms, 3)
        out["timer_lag_max_ms"] = round(self.timer_lag_max_ms, 3)
        return out


def _counter_view(attr: str) -> property:
    def _get(self: ReactorMetrics) -> float:
        return self._counters[attr].value

    def _set(self: ReactorMetrics, value: float) -> None:
        self._counters[attr].value = value

    return property(_get, None if attr in ReactorMetrics.PULLED else _set)


for _attr in ReactorMetrics.COUNTERS:
    setattr(ReactorMetrics, _attr, _counter_view(_attr))
del _attr


class TimerHandle:
    """A scheduled callback; ``cancel()`` is always safe to call.

    The handle is itself the entry its reactor queues: calling it marks
    it fired, records the timer's lag and runs the callback.
    """

    __slots__ = ("_reactor", "_when", "_callback", "_token", "fired",
                 "cancelled")

    def __init__(
        self, reactor: Reactor, when_ms: float, callback: Callback
    ) -> None:
        self._reactor = reactor
        self._when = when_ms
        self._callback = callback
        self._token = -1
        self.fired = False
        self.cancelled = False

    @property
    def active(self) -> bool:
        return not (self.fired or self.cancelled)

    def __call__(self) -> None:
        self.fired = True
        reactor = self._reactor
        reactor.metrics.note_timer_fired(max(0.0, reactor.now() - self._when))
        self._callback()

    def cancel(self) -> None:
        """Withdraw the timer; a no-op once it has fired or been cancelled."""
        if not self.active:
            return
        self.cancelled = True
        # The queue keeps the entry until its deadline: let go of the
        # callback's owner (a closed session's pump, say) now.
        self._callback = None
        self._reactor._cancel(self._token)


class Reactor(ABC):
    """Timers + I/O sources + observability over some notion of time."""

    def __init__(
        self, timers: TimerQueue, registry: MetricsRegistry | None = None
    ) -> None:
        self._timers = timers
        #: The session-wide metrics registry; every layer's instruments
        #: aggregate here and render through ``registry.snapshot()``.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.metrics = ReactorMetrics(self.registry)
        #: Span tracer timed by this reactor's clock (``now`` is abstract
        #: but only sampled at span time, after subclass init completes).
        self.tracer = SpanTracer(self.now)
        self._core_labels: list[str] = []
        self.registry.gauge("reactor.cores", fn=lambda: len(self._core_labels))

    def add_flush_hook(self, hook: Callable[[], int]) -> None:
        """Register a per-tick wire-batch flush (rx before tx).

        The sim loop flushes before its clock advances; the real reactor
        flushes at the end of every ``run_once`` iteration.
        """
        self._timers.add_flush_hook(hook)

    def register_core(self, role: str, label: str | None = None) -> str:
        """Register a session core; returns its instrument-name prefix.

        One reactor can drive many cores off a single timer heap (the
        session daemon runs N servers on one select loop). A solitary
        core keeps the bare ``server``/``client`` prefix for metric-name
        compatibility; labelled cores get ``server.s3``-style prefixes so
        every session's instruments coexist in one registry.
        """
        prefix = role if label is None else f"{role}.{label}"
        self._core_labels.append(prefix)
        return prefix

    @property
    def core_labels(self) -> list[str]:
        """Instrument prefixes of every core registered on this reactor."""
        return list(self._core_labels)

    @abstractmethod
    def now(self) -> float:
        """Current time in milliseconds."""

    def call_at(self, when_ms: float, callback: Callback) -> TimerHandle:
        """Run ``callback`` at absolute time ``when_ms``."""
        handle = TimerHandle(self, when_ms, callback)
        handle._token = self._schedule(when_ms, handle)
        return handle

    def _schedule(self, when_ms: float, handle: TimerHandle) -> int:
        return self._timers.push(when_ms, self.now(), handle)

    def _cancel(self, token: int) -> None:
        self._timers.cancel(token)
        self.metrics.timers_cancelled += 1

    def call_later(self, delay_ms: float, callback: Callback) -> TimerHandle:
        """Run ``callback`` after ``delay_ms`` (clamped to be non-negative)."""
        return self.call_at(self.now() + max(0.0, delay_ms), callback)

    def add_reader(self, fd: int, callback: Callback) -> None:
        """Invoke ``callback`` whenever ``fd`` is readable."""
        raise ReactorError(f"{type(self).__name__} has no I/O sources")

    def remove_reader(self, fd: int) -> None:
        raise ReactorError(f"{type(self).__name__} has no I/O sources")

    @abstractmethod
    def run_for(self, duration_ms: float) -> None:
        """Run the loop for ``duration_ms`` of this reactor's time."""


class SimReactor(Reactor):
    """Reactor over the deterministic discrete-event :class:`EventLoop`.

    Simulated endpoints deliver datagrams through callbacks rather than
    file descriptors, so ``add_reader`` is unsupported here; everything
    else — timers, metrics, pacing — behaves exactly like the real one,
    with zero timer lag by construction.
    """

    def __init__(self, loop: EventLoop | None = None) -> None:
        self.loop = loop if loop is not None else EventLoop()
        super().__init__(self.loop.timers)

    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self.loop.now()

    def _schedule(self, when_ms: float, handle: TimerHandle) -> int:
        # Through the loop, so past deadlines still raise.
        return self.loop.schedule_at(when_ms, handle)

    def run_for(self, duration_ms: float) -> None:
        """Advance simulated time by ``duration_ms``, firing due events."""
        self.loop.run_for(duration_ms)

    def run_until(self, when_ms: float) -> None:
        """Advance simulated time to the absolute ``when_ms``."""
        self.loop.run_until(when_ms)


class RealReactor(Reactor):
    """A ``select()`` loop over real file descriptors and wall-clock time.

    This is the paper's "single select() loop": each iteration sleeps
    until the earliest pending timer (capped by ``max_wait_ms``), wakes
    for readable descriptors, dispatches their callbacks, then fires every
    due timer, then runs the flush hooks.
    """

    def __init__(
        self, clock: Clock | None = None, timer_wheel: bool = True
    ) -> None:
        self._clock = clock if clock is not None else RealClock()
        super().__init__(TimerQueue(wheel=timer_wheel))
        self._readers: dict[int, Callback] = {}
        #: How far past the earliest timer deadline the loop woke this
        #: iteration: the live "is the select loop keeping up" signal the
        #: health monitor alerts on (a loaded loop wakes later and later).
        self._tick_lag = self.registry.gauge("reactor.tick_lag_ms")

    def now(self) -> float:
        """Current wall-clock time in milliseconds (monotonic)."""
        return self._clock.now()

    # -- timers ---------------------------------------------------------

    def _fire_due(self) -> None:
        timers = self._timers
        while True:
            deadline = timers.peek()
            if deadline is None or deadline > self.now():
                return
            timers.pop()[1]()

    # -- I/O sources ----------------------------------------------------

    def add_reader(self, fd: int, callback: Callback) -> None:
        """Invoke ``callback`` whenever ``fd`` selects readable."""
        self._readers[fd] = callback

    def remove_reader(self, fd: int) -> None:
        """Stop watching ``fd`` (no-op if it was never registered)."""
        self._readers.pop(fd, None)

    # -- loop -----------------------------------------------------------

    def run_once(self, max_wait_ms: float = 20.0) -> None:
        """One select()-loop iteration: sleep, dispatch I/O, fire timers."""
        deadline = self._timers.peek()
        wait = max_wait_ms
        if deadline is not None:
            wait = min(wait, deadline - self.now())
        wait = max(0.0, wait)
        try:
            readable, _, _ = select.select(
                list(self._readers), [], [], wait / 1000.0
            )
        except (OSError, ValueError):
            # A registered descriptor was closed under us; drop the dead
            # ones and let the caller's next iteration proceed.
            readable = []
            self._readers = {
                fd: cb for fd, cb in self._readers.items() if _fd_alive(fd)
            }
        for fd in readable:
            callback = self._readers.get(fd)
            if callback is not None:
                self.metrics.io_events += 1
                callback()
        if deadline is not None:
            self._tick_lag.set(max(0.0, self.now() - deadline))
        else:
            self._tick_lag.set(0.0)
        self._fire_due()
        # Wire-batch drain: this iteration's pump kicks run once per
        # session, and everything they send goes out in one syscall burst.
        self._timers.flush()

    def run_for(self, duration_ms: float, max_wait_ms: float = 20.0) -> None:
        """Run select()-loop iterations for ``duration_ms`` of wall time."""
        deadline = self.now() + duration_ms
        while True:
            remaining = deadline - self.now()
            if remaining <= 0:
                return
            self.run_once(min(max_wait_ms, remaining))


def _fd_alive(fd: int) -> bool:
    try:
        select.select([fd], [], [], 0)
        return True
    except (OSError, ValueError):
        return False
