"""The deployable session daemon: N pty sessions on one UDP port.

Mosh runs one server process per session; this daemon folds N sessions
into one process and one port. A single :class:`~repro.runtime.reactor.
RealReactor` select() loop watches the shared socket plus every
session's pty; the :class:`~repro.daemon.mux.SessionMux` routes each
inbound datagram to its session, and per-session
:class:`~repro.session.core.ServerCore` instances run unchanged — each
believes it owns a private connection.

Bootstrap prints one ``MOSH CONNECT <port> <key> <conn_id>`` line per
session (the first four fields are exactly mosh-server's; v1 parsers
ignore the fifth). All sessions share the port; keys and conn ids are
per-session.
"""

from __future__ import annotations

import json
import sys

from repro.app.pty_host import PtyHost
from repro.crypto.keys import Base64Key
from repro.daemon.manager import SessionManager, SessionRecord
from repro.network.batch import RxBatcher, WireBatcher
from repro.network.connection import MuxUdpConnection
from repro.obs.flight import FlightRecorder
from repro.obs.health import HealthMonitor, default_fleet_ruleset
from repro.obs.telemetry import TelemetryServer
from repro.runtime.reactor import RealReactor


class DaemonApp:
    """Reactor shell serving many pty sessions from one UDP socket."""

    def __init__(
        self,
        argv: list[str] | None = None,
        bind_host: str = "0.0.0.0",
        port: int | None = None,
        sessions: int = 1,
        width: int = 80,
        height: int = 24,
        idle_timeout_ms: float | None = None,
        flight: bool = False,
        flight_budget: int | None = None,
        telemetry: str | None = None,
        health_rules=None,
    ) -> None:
        self.reactor = RealReactor()
        self.flight: FlightRecorder | None = None
        # Daemon-level ring budget: one total event allowance divided
        # across the planned fleet (floor 64/session) instead of a
        # full-size ring per session; the manager's
        # ``daemon.flight.capacity_total`` gauge shows the resulting
        # ceiling.
        self._session_flight_capacity: int | None = None
        if flight_budget is not None:
            self._session_flight_capacity = max(
                64, flight_budget // max(1, sessions)
            )
        if flight:
            # One daemon-level recorder holds pre-route fates (garbage,
            # unroutable ids); each session's endpoint gets its own ring.
            self.flight = FlightRecorder(
                "daemon",
                clock=self.reactor.now,
                clock_domain="real",
                **(
                    {"capacity": self._session_flight_capacity}
                    if self._session_flight_capacity is not None
                    else {}
                ),
            )
        self.connection = MuxUdpConnection(
            bind_host=bind_host,
            port=port,
            registry=self.reactor.registry,
            flight=self.flight,
        )
        self._argv = argv
        self._width = width
        self._height = height
        # Wire batching: one pump kick per session and one sendmmsg burst
        # per select iteration, flushed at the end of each ``run_once``
        # (rx first so replies ride the same tick's burst).
        self.tx_batcher = WireBatcher(
            transmit_many=self.connection.transmit_many,
            registry=self.reactor.registry,
        )
        self.rx_batcher = RxBatcher(registry=self.reactor.registry)
        self.reactor.add_flush_hook(self.rx_batcher.flush)
        self.reactor.add_flush_hook(self.tx_batcher.flush)
        self.session_flights: dict[int, FlightRecorder] = {}
        flight_factory = None
        if flight:
            flight_factory = self._session_flight
        self.manager = SessionManager(
            self.reactor,
            self.connection,
            pty_factory=PtyHost,
            idle_timeout_ms=idle_timeout_ms,
            flight_factory=flight_factory,
        )
        self.reactor.add_reader(
            self.connection.fileno(), self.connection.receive_ready
        )
        # The live telemetry plane. Health is always on (one 1 s timer
        # and a handful of rules); the control socket only when asked.
        self.health = HealthMonitor(
            self.reactor.registry,
            health_rules if health_rules is not None else default_fleet_ruleset(),
            clock=self.reactor.now,
        )
        self.health.attach(self.reactor)
        self.telemetry: TelemetryServer | None = None
        if telemetry is not None:
            self.telemetry = TelemetryServer(
                self.reactor,
                self.reactor.registry,
                bind=telemetry,
                health=self.health,
            )
        self.running = False
        for _ in range(sessions):
            self.spawn()

    def _session_flight(self, conn_id: int) -> FlightRecorder:
        kwargs = {}
        if self._session_flight_capacity is not None:
            kwargs["capacity"] = self._session_flight_capacity
        recorder = FlightRecorder(
            f"server.s{conn_id}",
            clock=self.reactor.now,
            clock_domain="real",
            **kwargs,
        )
        self.session_flights[conn_id] = recorder
        return recorder

    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        return self.connection.port

    def spawn(self, key: Base64Key | None = None) -> SessionRecord:
        """Bring up one more session on the shared port."""
        record = self.manager.spawn(
            key=key,
            width=self._width,
            height=self._height,
            argv=self._argv,
        )
        record.endpoint.batcher = self.tx_batcher
        record.endpoint.rx_batcher = self.rx_batcher
        return record

    def connect_lines(self) -> list[str]:
        """One bootstrap line per live session."""
        port = self.port
        return [r.connect_line(port) for r in self.manager.records()]

    # ------------------------------------------------------------------

    def step(self, timeout_ms: float = 20.0) -> None:
        """One select()-driven iteration of the daemon loop."""
        self.reactor.run_once(timeout_ms)

    def run(self, idle_exit_ms: float | None = None) -> None:
        """Serve until every session is gone (or nobody ever connected)."""
        self.running = True
        started = self.reactor.now()
        try:
            while self.running and self.manager.conn_ids:
                self.step()
                if (
                    idle_exit_ms is not None
                    and self.reactor.now() - started > idle_exit_ms
                    and all(
                        r.endpoint.last_heard is None
                        for r in self.manager.records()
                    )
                ):
                    break
        finally:
            self.shutdown()
            # stdout carries the MOSH CONNECT bootstrap lines, so the
            # integrity report goes to stderr.
            print(self.integrity_summary(), file=sys.stderr, flush=True)

    def shutdown(self) -> None:
        self.running = False
        self.health.detach()
        if self.telemetry is not None:
            self.telemetry.close()
        # Drain the last tick's kicks and sends before the socket closes.
        self.rx_batcher.flush()
        self.tx_batcher.flush()
        self.reactor.remove_reader(self.connection.fileno())
        self.manager.close_all()
        self.connection.close()

    # ------------------------------------------------------------------
    # Observability surface
    # ------------------------------------------------------------------

    def integrity_summary(self) -> str:
        """Datagram-integrity report: fleet totals (closed sessions
        included, so it holds after :meth:`shutdown`), open sessions'
        detail."""
        counter = self.reactor.registry.counter
        parts = [
            f"{r.name}: {r.session.stats.auth_failures}/{r.session.stats.replay_drops}"
            for r in self.manager.records()
        ]
        detail = f" ({', '.join(parts)})" if parts else ""
        return (
            f"[repro-mosh-daemon] integrity: "
            f"{counter('crypto.auth_failures').value} auth failures, "
            f"{counter('crypto.replay_drops').value} replay drops across "
            f"{counter('daemon.sessions_spawned').value} sessions{detail}"
        )

    def write_metrics(self, path: str) -> dict:
        """Dump the daemon-wide ``repro.obs/1`` snapshot as JSON."""
        doc = self.reactor.registry.snapshot()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return doc

    def write_trace(self, path: str) -> int:
        """Export the span ring as Chrome ``trace_event`` JSON."""
        return self.reactor.tracer.export_chrome(path)

    def causal_summary(self) -> dict:
        """Fleet-pooled causal stage view from the live registry.

        The same aggregation ``repro trace --attach`` renders remotely:
        any client-side ``causal.*`` stage histograms in this registry
        pooled per stage, plus every session's server-resident echo-ack
        hold (``server.s<N>.causal.echo_wait_ms``). On a daemon whose
        clients run elsewhere, the stage section is empty and the
        echo-wait section carries the fleet's server-visible slice.
        """
        from repro.obs.causal import pool_server_echo_wait, pool_stage_summaries

        doc = self.reactor.registry.snapshot()
        pooled = pool_stage_summaries(doc)
        echo_wait = pool_server_echo_wait(doc)
        return {
            "schema": "repro.obs.causal.pool/1",
            "stages": {name: hist.summary() for name, hist in pooled.items()},
            "echo_wait": echo_wait.summary(),
        }

    def write_flight_log(self, path: str) -> int:
        """Export the daemon-level flight recording (pre-route fates).

        Per-session recordings live in :attr:`session_flights`, keyed by
        connection id; export them individually for timeline merges.
        """
        if self.flight is None:
            raise RuntimeError("daemon started without a flight recorder")
        return self.flight.export_jsonl(path)
