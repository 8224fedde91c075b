"""The reactor runtime: one event-driven core for simulated and real runs.

The paper's client and server are each "a single select() loop" (§2.3).
This package is that loop, abstracted: a :class:`Reactor` provides timers
(with cheap cancellation), I/O-readiness sources, and per-reactor metrics
counters. Both implementations keep their timers and flush hooks in one
scheduler core, :class:`~repro.runtime.timerwheel.TimerQueue`, and differ
only in the clock and in how they wait:

* :class:`SimReactor` — shares the deterministic discrete-event
  :class:`~repro.simnet.eventloop.EventLoop`'s queue; every experiment
  runs here.
* :class:`RealReactor` — a ``select()``-based loop over real file
  descriptors with the OS monotonic clock; the deployable apps run here.

Endpoint-agnostic session logic (:mod:`repro.session.core`) binds to a
reactor and never knows which one it got, so behaviour-affecting changes
land once and apply to both worlds.
"""

from repro.runtime.pump import TransportPump
from repro.runtime.reactor import (
    Reactor,
    ReactorMetrics,
    RealReactor,
    SimReactor,
    TimerHandle,
)

__all__ = [
    "Reactor",
    "ReactorMetrics",
    "RealReactor",
    "SimReactor",
    "TimerHandle",
    "TransportPump",
]
