"""The transport pump: SSP tick pacing as reactor timers.

Mosh's select() loop body is "tick the transport, then sleep until its
next deadline". :class:`TransportPump` expresses that as a self-rescheduling
reactor timer, and kicks immediately whenever the endpoint reports an
authentic datagram — so both the simulated and the real paths are
timer-driven through identical code.

The pump is also where one endpoint's instruments join the reactor's
observability substrate: it bridges the session's crypto counters and the
sender's pacing counters into the shared registry as deltas, adopts the
free-standing seal/unseal and frame-interval histograms under
role-qualified names (``server.crypto.seal_us``, ``client.sender.
frame_interval_ms``), publishes live SRTT/RTTVAR gauges, and wraps every
tick in a ``{role}.tick`` span.
"""

from __future__ import annotations

from operator import attrgetter
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

#: Sender counters bridged into the registry, attribute -> short name.
_SENDER_COUNTERS = (
    ("instructions_sent", "instructions"),
    ("empty_acks_sent", "empty_acks"),
    ("piggybacked_acks", "piggybacked_acks"),
    ("standalone_acks", "standalone_acks"),
    ("datagrams_sent", "fragments"),
    ("diff_cache_hits", "diff_cache_hits"),
    ("diff_cache_misses", "diff_cache_misses"),
)

#: One-shot readers for the per-tick delta bridges: a prebuilt attrgetter
#: walks C code instead of a genexpr + getattr per counter per tick.
_read_sender = attrgetter(*(attr for attr, _ in _SENDER_COUNTERS))
_read_crypto = attrgetter(
    "datagrams_sealed",
    "bytes_sealed",
    "datagrams_unsealed",
    "bytes_unsealed",
    "auth_failures",
    "replay_drops",
)


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
        self._sent_seen = endpoint.datagrams_sent
        stats = endpoint.session.stats
        self._crypto_seen = _read_crypto(stats)
        self._sender_seen = _read_sender(transport.sender)
        self._wire_observability(reactor, transport, stats)
        inner = endpoint.on_datagram

        def on_datagram(now: float) -> None:
            reactor.metrics.datagrams_in += 1
            if inner is not None:
                inner(now)
            self.kick()

        def on_datagram_count(now: float, count: int) -> None:
            # Coalesced burst notification from the batched receive path:
            # one transport kick for the whole burst instead of one per
            # datagram (the kick is idempotent work scheduling).
            reactor.metrics.datagrams_in += count
            if inner is not None:
                for _ in range(count):
                    inner(now)
            self.kick()

        endpoint.on_datagram = on_datagram
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
        # Live RTT gauges read the estimator at snapshot time, so pacing
        # ticks pay nothing for them.
        registry.gauge(f"{role}.network.srtt_ms", fn=lambda: endpoint.srtt)
        registry.gauge(f"{role}.network.rttvar_ms", fn=lambda: endpoint.rttvar)
        registry.gauge(f"{role}.network.rto_ms", fn=endpoint.rto)
        causal = getattr(endpoint, "causal", None)
        if causal is not None:
            # Causal-tracer health: outstanding (stamped, unsettled)
            # chains and retained tail exemplars. The stage histograms
            # register themselves under ``causal.*`` at tracer build.
            registry.gauge(
                f"{role}.causal.pending", fn=lambda: causal.pending
            )
            registry.gauge(
                f"{role}.causal.exemplars", fn=lambda: causal.exemplar_count
            )
        flight = endpoint.flight
        if flight is not None:
            # Ring occupancy and overwrite count for the wire-level
            # flight recorder, when one is attached to this endpoint.
            registry.gauge(f"{role}.flight.events", fn=lambda: len(flight))
            registry.gauge(
                f"{role}.flight.dropped_events",
                fn=lambda: flight.dropped_events,
            )
        self._sender_counters = tuple(
            registry.counter(f"{role}.sender.{name}")
            for _, name in _SENDER_COUNTERS
        )
        self._tick_span_name = f"{role}.tick"
        # Fleet-wide (unprefixed) park-transition counters. The split
        # between plain wakes and *dormant* wakes is what lets a health
        # rule tell a mass-reconnect storm (sessions parked for tens of
        # seconds all stampeding back) from a flash crowd of new
        # sessions, whose pre-connect parks last well under a second.
        self._parks = registry.counter("pump.parks")
        self._wakes = registry.counter("pump.wakes")
        self._dormant_wakes = registry.counter("pump.dormant_wakes")
        # Wire-integrity bridge: framing drops live on the endpoint (it
        # has no registry in scope); surface them fleet-wide so burn-rate
        # health rules can alert on tampering without a snapshot walk.
        self._framing_drops = registry.counter("network.framing_drops")
        self._framing_seen = endpoint.framing_drops

    def kick(self) -> None:
        """Tick the transport now and re-arm from its next deadline."""
        if self.stopped:
            return
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        reactor = self._reactor
        now = reactor.now()
        self._transport.tick(now)
        # Fast-path span: ``now`` is already in hand and this runs on
        # every tick, so skip the context-manager machinery.
        reactor.tracer.record_span(self._tick_span_name, now)
        metrics = reactor.metrics
        metrics.ticks += 1
        sent = self._transport.endpoint.datagrams_sent
        metrics.datagrams_out += sent - self._sent_seen
        self._sent_seen = sent
        # Bridge the session's crypto counters as deltas, so several pumps
        # (or a pump restart) can share one metrics block safely. This runs
        # every tick, so it stays straight-line attribute math.
        stats = self._transport.endpoint.session.stats
        seen = self._crypto_seen
        crypto = _read_crypto(stats)
        if crypto != seen:
            metrics.datagrams_sealed += crypto[0] - seen[0]
            metrics.bytes_sealed += crypto[1] - seen[1]
            metrics.datagrams_unsealed += crypto[2] - seen[2]
            metrics.bytes_unsealed += crypto[3] - seen[3]
            metrics.auth_failures += crypto[4] - seen[4]
            metrics.replay_drops += crypto[5] - seen[5]
            self._crypto_seen = crypto
        drops = self._transport.endpoint.framing_drops
        if drops != self._framing_seen:
            self._framing_drops.inc(drops - self._framing_seen)
            self._framing_seen = drops
        # Same delta treatment for the sender's pacing counters.
        sender = self._transport.sender
        seen = self._sender_seen
        fresh = _read_sender(sender)
        if fresh != seen:
            for counter, new, old in zip(self._sender_counters, fresh, seen):
                counter.value += new - old
            self._sender_seen = fresh
        wait = self._transport.wait_time(now)
        endpoint = self._transport.endpoint
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
        timer and make every later :meth:`kick` a no-op."""
        self.stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

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
