"""Connection muxing: many SSP sessions behind one datagram port.

A :class:`SessionMux` is the daemon's routing table. Every inbound
datagram is peeked pre-auth (:func:`repro.network.packet.peek_conn_id`,
the same never-raise discipline as ``peek_seq``) and routed one of three
ways, in order:

* **By connection id** — v2 datagrams carry a cleartext varint conn id
  ahead of the nonce. Routing is a dict lookup, and because the id names
  the *session* rather than the 4-tuple, a roaming client keeps its
  session across any address change — the QUIC/SSH3 demultiplexing
  property, applied to SSP.
* **By learned source address** — v1 datagrams (no mux header) route
  through an address table populated by previous authenticated traffic.
* **By authentication probe** — a v1 datagram from an unknown source is
  offered to each session's key with a side-effect-free
  :meth:`~repro.crypto.session.Session.probe`; the first key that
  authenticates it claims the source address. This is the v1 roaming
  path: O(sessions) once per address change, O(1) afterwards.

A forged or mis-addressed conn id can only deliver a datagram to a
session whose key will refuse it — exactly as harmful as dropping it —
so the id lives safely outside the sealed region.

:class:`VirtualEndpoint` is what each session core sees: a full
:class:`~repro.network.interface.DatagramEndpoint` (sequence numbers,
RTT estimation, roaming re-target, flight recording) whose transmit
simply hands framed bytes back to the owning mux's shared port.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.crypto.session import NullSession, Session
from repro.errors import NetworkError
from repro.network.interface import DatagramEndpoint
from repro.network.packet import peek_conn_id
from repro.obs import registry as _obs
from repro.obs.flight import DIR_C2S, FlightRecorder, peek_seq
from repro.obs.registry import MetricsRegistry

#: Learned v1 source addresses kept at most; far above any plausible
#: concurrent-session count, it only bounds an address-spray attack.
ADDR_TABLE_LIMIT = 65536


class VirtualEndpoint(DatagramEndpoint):
    """One session's endpoint on the mux's shared port.

    Always a server-side endpoint: the daemon owns the port. The conn-id
    framing (attach on send, strip/validate on receive, v1 fallback) is
    inherited from :class:`DatagramEndpoint`; only raw byte movement is
    delegated to the mux.
    """

    def __init__(
        self,
        mux: "SessionMux",
        session: Session | NullSession,
        conn_id: int,
        mtu: int = 500,
    ) -> None:
        super().__init__(session=session, is_server=True, mtu=mtu)
        self.set_conn_id(conn_id)
        self._mux = mux

    def now(self) -> float:
        return self._mux.now()

    def _transmit(self, raw: bytes, now: float) -> None:
        self._mux.transmit(raw, self._remote_addr, now)

    def transmit_to(self, raw: bytes, addr: Any, now: float) -> None:
        """Batched-flush transmit: the mux port is inherently addressable."""
        self._mux.transmit(raw, addr, now)

    def deliver(self, raw: bytes, addr: Any, now: float) -> None:
        """Inbound raw datagram (still framed, if v2) from the mux."""
        self._handle_datagram(raw, addr, now)

    def deliver_now(self, raw: bytes, addr: Any, now: float) -> None:
        """Deliver with the inline (unstaged) unseal path.

        The legacy v1 routing fallback reads this endpoint's accept/
        auth-failure counters immediately after delivery to decide
        whether the source address still belongs to this session; that
        verdict cannot wait for a batch flush.
        """
        stage = self.rx_stage
        self.rx_stage = None
        try:
            self._handle_datagram(raw, addr, now)
        finally:
            self.rx_stage = stage

    def close(self) -> None:
        """Withdraw this session from the routing table."""
        self._mux.close_endpoint(self._conn_id)


class SessionMux:
    """Routing table demultiplexing one port's datagrams to N sessions.

    Transport-agnostic: the real-UDP shell
    (:class:`~repro.network.connection.MuxUdpConnection`) and the
    simulator (:class:`~repro.simnet.host.SimMuxPort`) both feed
    :meth:`dispatch` and carry :attr:`transmit` outward.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        transmit: Callable[[bytes, Any, float], None] | None = None,
        registry: MetricsRegistry | None = None,
        flight: FlightRecorder | None = None,
    ) -> None:
        self._clock = clock
        #: Outward raw-byte path: ``transmit(raw, dest_addr, now)``.
        self.transmit = transmit
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Optional recorder for pre-route terminal fates (garbage and
        #: unroutable datagrams die before reaching any session).
        self.flight = flight
        self._routes: dict[int, VirtualEndpoint] = {}
        self._addr_routes: dict[Any, int] = {}
        self._next_conn_id = 1
        self._routed = self.registry.counter("daemon.datagrams_routed")
        self._bad = self.registry.counter("daemon.bad_packets")
        self._no_route = self.registry.counter("daemon.no_route")
        self._fallbacks = self.registry.counter("daemon.legacy_fallbacks")
        #: Trial decryptions spent on v1 key probing, successful or not:
        #: the unauthenticated work a v1 sender can make the daemon do.
        self._probe_attempts = self.registry.counter("daemon.probe_attempts")
        self.registry.gauge("daemon.sessions_routed", fn=lambda: len(self._routes))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def now(self) -> float:
        return self._clock()

    @property
    def conn_ids(self) -> list[int]:
        return sorted(self._routes)

    def endpoint(self, conn_id: int) -> VirtualEndpoint | None:
        return self._routes.get(conn_id)

    def open_endpoint(
        self,
        session: Session | NullSession,
        conn_id: int | None = None,
        mtu: int = 500,
    ) -> VirtualEndpoint:
        """Create and register a session endpoint (id allocated if None)."""
        if conn_id is None:
            while self._next_conn_id in self._routes:
                self._next_conn_id += 1
            conn_id = self._next_conn_id
            self._next_conn_id += 1
        elif conn_id in self._routes:
            raise NetworkError(f"connection id {conn_id} already in use")
        endpoint = VirtualEndpoint(self, session, conn_id, mtu=mtu)
        self._routes[conn_id] = endpoint
        return endpoint

    def close_endpoint(self, conn_id: int) -> bool:
        """Free the routing entry (and any learned addresses) for a session."""
        if self._routes.pop(conn_id, None) is None:
            return False
        stale = [a for a, cid in self._addr_routes.items() if cid == conn_id]
        for addr in stale:
            del self._addr_routes[addr]
        return True

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _drop(self, now: float, reason: str, raw: bytes) -> None:
        if self.flight is not None and _obs._enabled:
            self.flight.note_drop(
                now, DIR_C2S, reason, seq=peek_seq(raw), wire_len=len(raw)
            )

    def _learn(self, addr: Any, conn_id: int) -> None:
        if addr is None:
            return
        if len(self._addr_routes) >= ADDR_TABLE_LIMIT:
            # Bounded learning: drop the oldest entry (insertion order).
            self._addr_routes.pop(next(iter(self._addr_routes)))
        self._addr_routes[addr] = conn_id

    def dispatch(
        self, raw: bytes, addr: Any, now: float | None = None
    ) -> VirtualEndpoint | None:
        """Route one inbound datagram; returns the endpoint that took it.

        Never raises, whatever bytes arrive: garbage counts
        ``daemon.bad_packets``, unroutable datagrams count
        ``daemon.no_route``, and both leave a ``drop`` flight event.
        """
        if now is None:
            now = self._clock()
        peeked = peek_conn_id(raw)
        if peeked is None:
            self._bad.value += 1
            self._drop(now, "bad_packet", raw)
            return None
        conn_id, _ = peeked
        if conn_id is not None:
            endpoint = self._routes.get(conn_id)
            if endpoint is None:
                self._no_route.value += 1
                self._drop(now, "no_route", raw)
                return None
            endpoint.deliver(raw, addr, now)
            self._routed.value += 1
            return endpoint
        return self._dispatch_legacy(raw, addr, now)

    def _dispatch_legacy(
        self, raw: bytes, addr: Any, now: float
    ) -> VirtualEndpoint | None:
        """v1 datagram: learned source address first, then key probing."""
        if len(self._routes) == 1:
            # A one-session port is unambiguous: behave exactly like a
            # dedicated connection (forgeries land on the session and
            # count as its auth failures, as they always did).
            endpoint = next(iter(self._routes.values()))
            endpoint.deliver(raw, addr, now)
            self._routed.value += 1
            return endpoint
        known = self._addr_routes.get(addr)
        if known is not None:
            endpoint = self._routes.get(known)
            if endpoint is not None:
                accepted = endpoint.datagrams_received
                failures = endpoint.session.stats.auth_failures
                # Counter-probing below needs the unseal verdict *now*;
                # a staged (batched) unseal would defer it past the
                # routing decision.
                endpoint.deliver_now(raw, addr, now)
                if endpoint.datagrams_received > accepted:
                    self._routed.value += 1
                    return endpoint
                if endpoint.session.stats.auth_failures == failures:
                    # Authentic but terminal (replay/reflect/bad body):
                    # correctly routed; the endpoint recorded the fate.
                    self._routed.value += 1
                    return endpoint
                # Authentication failed: this source address no longer
                # belongs to that session — fall through and re-probe.
        for conn_id, endpoint in self._routes.items():
            if conn_id == known:
                continue  # already tried (and failed) above
            self._probe_attempts.value += 1
            if endpoint.session.probe(raw):
                self._learn(addr, conn_id)
                self._fallbacks.value += 1
                endpoint.deliver(raw, addr, now)
                self._routed.value += 1
                return endpoint
        self._no_route.value += 1
        self._drop(now, "no_route", raw)
        return None
