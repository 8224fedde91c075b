"""The transport pump: SSP tick pacing as reactor timers.

Mosh's select() loop body is "tick the transport, then sleep until its
next deadline". :class:`TransportPump` expresses that as a self-rescheduling
reactor timer, and kicks immediately whenever the endpoint reports an
authentic datagram — so both the simulated and the real paths are
timer-driven through identical code.

The pump is also where one endpoint's instruments join the reactor's
observability substrate: it attaches the endpoint to the reactor's
pulled fleet counters, registers sourced counters and gauges that read
the sender and endpoint when a snapshot is taken (nothing is copied per
tick), adopts the free-standing seal/unseal and frame-interval
histograms under role-qualified names (``server.crypto.seal_us``,
``client.sender.frame_interval_ms``), and wraps every tick in a
``{role}.tick`` span. :meth:`TransportPump.stop` retires the endpoint
and freezes those instruments, so a closed session can be freed.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.obs.registry import MetricsRegistry
from repro.runtime.reactor import Reactor, TimerHandle
from repro.transport.transport import Transport

#: Never sleep longer than this between ticks; a safety net matching the
#: transport's 3 s heartbeat interval.
MAX_TICK_DELAY_MS = 3000.0

#: Floor on the re-arm delay so a confused timer can never pin a simulated
#: clock in place (defense in depth; a due tick should always progress).
MIN_TICK_DELAY_MS = 0.5

#: A session parks only when its next deadline is at least this far out:
#: an idle sender's sole deadline is the 3 s heartbeat, while pending
#: data acks (<= 100 ms) and pacing deadlines stay well under this.
PARK_MIN_WAIT_MS = 1000.0

#: A *server* that has heard nothing for this long (3+ missed client
#: heartbeats) treats the client as detached — suspended laptop, dead NAT
#: binding — and goes dormant: no heartbeats into the void, no timer
#: armed at all. The first datagram from the returning client kicks the
#: pump synchronously and service resumes. Clients never go dormant;
#: their heartbeats are what probes the path back.
DORMANT_AFTER_MS = 10_000.0

def _adopt(registry: MetricsRegistry, instrument, name: str):
    """Register ``instrument`` under ``name``, suffixing on collision.

    Two pumps of the same role on one reactor is unusual (tests, mostly)
    but must not blow up the registry; the second set of instruments
    lands under ``name#2`` and so on.
    """
    base = name
    for attempt in range(2, 10):
        existing = registry.get(name)
        if existing is None or existing is instrument:
            return registry.register(instrument, name)
        name = f"{base}#{attempt}"
    return instrument  # pathological collision count: leave it unregistered


class TransportPump:
    """Self-scheduling pump binding one :class:`Transport` to a reactor."""

    def __init__(
        self,
        reactor: Reactor,
        transport: Transport,
        role: str | None = None,
    ) -> None:
        self._reactor = reactor
        self._transport = transport
        self._timer: TimerHandle | None = None
        #: True while this session is parked: the sender has no pending
        #: diff and no unacked data, so the only armed timer (if any) is
        #: the coarse heartbeat on the wheel, and per-tick bookkeeping is
        #: skipped. A parked pump wakes synchronously on datagram arrival
        #: (``on_datagram`` chains into :meth:`kick`) or on any local
        #: activity (host writes and keystrokes kick directly).
        self.parked = False
        self._parked_since: float | None = None
        #: Park-transition hook: called with the new parked state; the
        #: session manager counts fleet-wide parked/active gauges here.
        self.on_park_change: Callable[[bool], None] | None = None
        #: Kill switch for parking (benchmark legacy mode): when False the
        #: pump always keeps a timer armed, pre-parking style.
        self.park_enabled = True
        #: Set by :meth:`stop`; a stopped pump never ticks again.
        self.stopped = False
        endpoint = transport.endpoint
        # ``role`` prefixes every adopted instrument name; daemon shells
        # pass per-session labels ("server.s3") so N pumps share a
        # registry without colliding.
        if role is None:
            role = "server" if endpoint.is_server else "client"
        self.role = role
        #: Sourced counters and gauges reading this session's objects.
        self.sourced: list = []
        self._wire_observability(reactor, transport, endpoint.session.stats)
        reactor.metrics.attach(endpoint)
        inner = endpoint.on_datagram

        def on_datagram_count(now: float, count: int) -> None:
            # Coalesced burst notification from the batched receive path:
            # one transport kick for the whole burst instead of one per
            # datagram (the kick is idempotent work scheduling).
            if inner is not None:
                for _ in range(count):
                    inner(now)
            self.kick()

        endpoint.on_datagram = partial(on_datagram_count, count=1)
        endpoint.on_datagram_count = on_datagram_count

    def _wire_observability(self, reactor: Reactor, transport, stats) -> None:
        """Adopt this endpoint's instruments into the shared registry."""
        registry = reactor.registry
        role = self.role
        endpoint = transport.endpoint
        _adopt(registry, stats.seal_us, f"{role}.crypto.seal_us")
        _adopt(registry, stats.unseal_us, f"{role}.crypto.unseal_us")
        _adopt(
            registry,
            transport.sender.frame_interval,
            f"{role}.sender.frame_interval_ms",
        )
        sourced = self.sourced

        def gauge(name: str, fn: Callable[[], float]) -> None:
            sourced.append(registry.gauge(f"{role}.{name}", fn=fn))

        # Live RTT gauges read the estimator at snapshot time, so pacing
        # ticks pay nothing for them.
        gauge("network.srtt_ms", lambda: endpoint.srtt)
        gauge("network.rttvar_ms", lambda: endpoint.rttvar)
        gauge("network.rto_ms", endpoint.rto)
        causal = getattr(endpoint, "causal", None)
        if causal is not None:
            # Causal-tracer health: outstanding (stamped, unsettled)
            # chains and retained tail exemplars. The stage histograms
            # register themselves under ``causal.*`` at tracer build.
            gauge("causal.pending", lambda: causal.pending)
            gauge("causal.exemplars", lambda: causal.exemplar_count)
        flight = endpoint.flight
        if flight is not None:
            # Ring occupancy and overwrite count for the wire-level
            # flight recorder, when one is attached to this endpoint.
            gauge("flight.events", lambda: len(flight))
            gauge("flight.dropped_events", lambda: flight.dropped_events)
        # The sender's pacing counters, likewise read when read.
        sender = transport.sender
        for name, attr in (
            ("instructions", "instructions_sent"),
            ("empty_acks", "empty_acks_sent"),
            ("piggybacked_acks", "piggybacked_acks"),
            ("standalone_acks", "standalone_acks"),
            ("fragments", "datagrams_sent"),
            ("diff_cache_hits", "diff_cache_hits"),
            ("diff_cache_misses", "diff_cache_misses"),
        ):
            sourced.append(registry.counter(
                f"{role}.sender.{name}", fn=partial(getattr, sender, attr)
            ))
        self._ticks = registry.counter("reactor.ticks")
        self._tick_span_name = f"{role}.tick"
        # Fleet-wide (unprefixed) park-transition counters. The split
        # between plain wakes and *dormant* wakes is what lets a health
        # rule tell a mass-reconnect storm (sessions parked for tens of
        # seconds all stampeding back) from a flash crowd of new
        # sessions, whose pre-connect parks last well under a second.
        self._parks = registry.counter("pump.parks")
        self._wakes = registry.counter("pump.wakes")
        self._dormant_wakes = registry.counter("pump.dormant_wakes")

    def kick(self) -> None:
        """Tick the transport now and re-arm from its next deadline."""
        if self.stopped:
            return
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        reactor = self._reactor
        now = reactor.now()
        transport = self._transport
        transport.tick(now)
        # Fast-path span: ``now`` is already in hand and this runs on
        # every tick, so skip the context-manager machinery.
        reactor.tracer.record_span(self._tick_span_name, now)
        self._ticks.value += 1
        wait = transport.wait_time(now)
        sender = transport.sender
        endpoint = transport.endpoint
        if self.park_enabled:
            if wait is None:
                # Deep park: no peer address yet, so nothing can become
                # due until the network speaks. No timer is armed at all
                # — the first datagram (or local activity) kicks
                # synchronously.
                self._set_parked(True)
                return
            if (
                sender.last_wait_idle
                and endpoint.is_server
                and endpoint.last_heard is not None
                and now - endpoint.last_heard >= DORMANT_AFTER_MS
            ):
                # Dormant park: the client has been gone for several
                # heartbeat periods. Stop heartbeating at its stale
                # address; its next authentic datagram wakes us.
                self._set_parked(True)
                return
            self._set_parked(
                sender.last_wait_idle and wait >= PARK_MIN_WAIT_MS
            )
        else:
            # Parking disabled: the pump always keeps a timer armed, so a
            # parked flag left over from before the switch flipped (e.g.
            # the pre-connect deep park) must not keep counting in the
            # fleet gauges.
            self._set_parked(False)
            if wait is None:
                wait = MAX_TICK_DELAY_MS
        self._timer = self._reactor.call_later(
            max(min(wait, MAX_TICK_DELAY_MS), MIN_TICK_DELAY_MS), self.kick
        )

    def stop(self) -> None:
        """Stop for good (the session was closed): cancel the armed
        timer, make every later :meth:`kick` a no-op, retire the
        endpoint's counts into the fleet totals, and freeze the sourced
        instruments so the registry lets go of the session."""
        if self.stopped:
            return
        self.stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._reactor.metrics.retire(self._transport.endpoint)
        for instrument in self.sourced:
            instrument.freeze()
        # A kick re-entered from a tick can leave an untracked timer
        # armed, holding this pump until it fires: drop the session.
        self._transport = None

    def suspend(self) -> None:
        """Stop self-scheduling: the endpoint's machine "went to sleep".

        No timer remains armed, so the session generates no traffic and
        costs nothing until the next :meth:`kick` — a received datagram
        or local activity — resumes the schedule. Used by harnesses to
        model detached clients (closed laptops) at fleet scale.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._set_parked(True)

    def _set_parked(self, parked: bool) -> None:
        if parked == self.parked:
            return
        self.parked = parked
        now = self._reactor.now()
        if parked:
            self._parks.inc()
            self._parked_since = now
        else:
            self._wakes.inc()
            if (
                self._parked_since is not None
                and now - self._parked_since >= DORMANT_AFTER_MS
            ):
                self._dormant_wakes.inc()
            self._parked_since = None
        if self.on_park_change is not None:
            self.on_park_change(parked)
