"""The live telemetry plane: control socket, exposition formats, feeds.

Everything in :mod:`repro.obs` used to be post-mortem (``--metrics-dump``
at exit) or in-process (a dashboard reading a registry it owns). This
module makes a *running* daemon observable:

* :func:`render_prometheus` — the registry snapshot as Prometheus text
  exposition (labels escaped per the format spec, histograms as
  cumulative ``_bucket`` series), so stock scrapers can ingest it.
* :class:`TelemetryServer` — a reactor-driven, non-blocking control
  socket (Unix path or TCP loopback) answering one-shot ``scrape`` /
  ``health`` requests and serving ``watch`` subscribers a JSONL delta
  feed: one :class:`~repro.obs.registry.SnapshotDelta` per subscriber
  ships only the instruments that changed since their last tick, plus
  any health alerts raised in between.
* :func:`attach_metrics_writer` — the crash-safe successor to
  dump-at-exit: rewrite the snapshot atomically (tmp + ``os.replace``)
  off a recurring reactor timer.
* Blocking client helpers (:func:`request`, :func:`scrape`,
  :func:`watch`) used by ``repro scrape`` / ``repro top``.

The wire protocol is one request line (``scrape json``, ``scrape prom``,
``health``, ``watch``) and either a single response followed by close, or
— for ``watch`` — a JSONL stream whose first line is a full
``repro.obs/1`` snapshot and every later line a ``repro.obs.delta/1``
document (reassemble with :func:`~repro.obs.registry.apply_delta`).

The server never blocks the reactor: accepts and reads ride
``reactor.add_reader``, responses drain through per-client bounded
buffers on a short timer, and a subscriber that stops reading is dropped
once its buffer passes the cap. That keeps the feed within the always-on
≤5 % observability overhead budget even with scrapers attached.
"""

from __future__ import annotations

import errno
import json
import os
import re
import socket
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import ObservabilityError
from repro.obs.registry import (
    DELTA_SCHEMA,
    MetricsRegistry,
    SnapshotDelta,
    validate_snapshot,
)

if TYPE_CHECKING:  # runtime import would cycle: reactor imports repro.obs
    from repro.runtime.reactor import Reactor, TimerHandle

#: Default feed cadence: one delta line per subscriber per second.
FEED_INTERVAL_MS = 1000.0

#: Drop a subscriber whose unsent backlog passes this (slow reader).
MAX_CLIENT_BUFFER = 256 * 1024

#: How often buffered responses retry their non-blocking sends.
DRAIN_INTERVAL_MS = 50.0

_METRIC_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")
_SESSION_SEGMENT = re.compile(r"^[sc]\d+$")


# ---------------------------------------------------------------------------
# Prometheus text exposition


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or (
        isinstance(value, float) and value.is_integer()
    ):
        return str(int(value))
    return repr(float(value))


def _prom_series(name: str) -> tuple[str, str]:
    """Map a dotted instrument name to (metric_name, label_string).

    Per-session segments (``s3`` / ``c12``, as produced by the daemon's
    ``server.s3.…`` prefixes) become a ``session`` label so one metric
    aggregates across the fleet; the full dotted name always rides along
    as a ``name`` label, which lets a parser round-trip the exposition
    back into the exact snapshot document.
    """
    parts = name.split(".")
    session = None
    metric_parts = []
    for part in parts:
        if session is None and _SESSION_SEGMENT.match(part):
            session = part
            continue
        metric_parts.append(part)
    metric = "repro_" + "_".join(
        _METRIC_SANITIZE.sub("_", part) for part in metric_parts
    )
    labels = f'name="{_escape_label(name)}"'
    if session is not None:
        labels += f',session="{_escape_label(session)}"'
    return metric, labels


def render_prometheus(doc: dict) -> str:
    """Render a ``repro.obs/1`` snapshot as Prometheus text exposition."""
    validate_snapshot(doc)
    # metric name -> (type, [(labels, payload), …]); insertion order of the
    # snapshot's sorted sections keeps the output deterministic.
    families: dict[str, tuple[str, list]] = {}

    def series(section: str, kind: str):
        for name, payload in doc[section].items():
            metric, labels = _prom_series(name)
            family = families.setdefault(metric, (kind, []))
            if family[0] != kind:
                # A counter and a gauge landing on one sanitized name
                # would emit a malformed family; qualify the newcomer.
                metric = f"{metric}_{kind}"
                family = families.setdefault(metric, (kind, []))
            family[1].append((labels, payload))

    series("counters", "counter")
    series("gauges", "gauge")
    series("histograms", "histogram")

    lines: list[str] = []
    for metric in sorted(families):
        kind, entries = families[metric]
        lines.append(f"# TYPE {metric} {kind}")
        for labels, payload in sorted(entries):
            if kind != "histogram":
                lines.append(f"{metric}{{{labels}}} {_fmt(payload)}")
                continue
            cumulative = 0
            for bound, count in payload["buckets"]:
                cumulative += count
                lines.append(
                    f'{metric}_bucket{{{labels},le="{_fmt(bound)}"}} '
                    f"{cumulative}"
                )
            lines.append(
                f'{metric}_bucket{{{labels},le="+Inf"}} {payload["count"]}'
            )
            lines.append(f"{metric}_sum{{{labels}}} {_fmt(payload['sum'])}")
            lines.append(
                f"{metric}_count{{{labels}}} {payload['count']}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Periodic atomic metrics writer


def write_snapshot_atomic(doc: dict, path: str) -> None:
    """Write ``doc`` to ``path`` via tmp file + ``os.replace``."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


class MetricsWriter:
    """Rewrites the registry snapshot atomically on a reactor timer.

    The fix for ``--metrics-dump`` only writing at clean exit: a crashed
    or killed daemon leaves behind a snapshot at most one interval old,
    and readers never observe a torn file.
    """

    def __init__(
        self,
        reactor: Reactor,
        registry: MetricsRegistry,
        path: str,
        interval_ms: float,
    ) -> None:
        if interval_ms <= 0:
            raise ObservabilityError("metrics interval must be > 0")
        self._reactor = reactor
        self._registry = registry
        self.path = path
        self.interval_ms = interval_ms
        self.writes = 0
        self._timer: TimerHandle | None = None
        self._tick()  # first snapshot lands immediately

    def _tick(self) -> None:
        write_snapshot_atomic(self._registry.snapshot(), self.path)
        self.writes += 1
        self._timer = self._reactor.call_later(self.interval_ms, self._tick)

    def close(self) -> None:
        """Cancel the timer and write one final snapshot."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        write_snapshot_atomic(self._registry.snapshot(), self.path)


def attach_metrics_writer(
    reactor: Reactor,
    registry: MetricsRegistry,
    path: str,
    interval_ms: float,
) -> MetricsWriter:
    """Start rewriting ``path`` with the live snapshot every interval."""
    return MetricsWriter(reactor, registry, path, interval_ms)


# ---------------------------------------------------------------------------
# The control socket server


class _Client:
    """One accepted control connection's buffers and feed state."""

    __slots__ = (
        "sock", "fd", "inbuf", "outbuf", "closing", "delta", "alert_seq",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.closing = False  # close once outbuf drains
        self.delta: SnapshotDelta | None = None  # set => watch subscriber
        self.alert_seq = 0


def _bind_control_socket(
    bind: str,
) -> tuple[socket.socket, str, str | None]:
    """Bind the control socket; returns (socket, address, unix_path)."""
    if "/" in bind:
        path = bind
        try:
            if os.path.exists(path):
                os.unlink(path)  # stale socket from a previous run
        except OSError as exc:
            raise ObservabilityError(
                f"cannot reclaim control socket {path!r}: {exc}"
            ) from exc
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.bind(path)
        except OSError as exc:
            sock.close()
            raise ObservabilityError(
                f"cannot bind control socket {path!r}: {exc}"
            ) from exc
        return sock, path, path
    host, _, port = bind.rpartition(":")
    if not host or not port.isdigit():
        raise ObservabilityError(
            f"telemetry bind {bind!r} must be host:port or a socket path"
        )
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        sock.bind((host, int(port)))
    except OSError as exc:
        sock.close()
        raise ObservabilityError(
            f"cannot bind control socket {bind!r}: {exc}"
        ) from exc
    bound_host, bound_port = sock.getsockname()[:2]
    return sock, f"{bound_host}:{bound_port}", None


class TelemetryServer:
    """Non-blocking stats endpoint riding the reactor's select loop.

    Requires a reactor with I/O sources (``RealReactor``); simulated
    runs exercise the same protocol through :meth:`handle_command` and
    :class:`~repro.obs.registry.SnapshotDelta` directly.
    """

    def __init__(
        self,
        reactor: Reactor,
        registry: MetricsRegistry,
        bind: str = "127.0.0.1:0",
        health=None,
        feed_interval_ms: float = FEED_INTERVAL_MS,
        max_buffer: int = MAX_CLIENT_BUFFER,
    ) -> None:
        self._reactor = reactor
        self._registry = registry
        self.health = health
        self.feed_interval_ms = feed_interval_ms
        self.max_buffer = max_buffer
        self._clients: dict[int, _Client] = {}
        self._feed_timer: TimerHandle | None = None
        self._drain_timer: TimerHandle | None = None
        self._closed = False
        self.scrapes = registry.counter("telemetry.scrapes")
        self.feed_lines = registry.counter("telemetry.feed_lines")
        self.dropped = registry.counter("telemetry.dropped_subscribers")
        registry.gauge(
            "telemetry.subscribers",
            fn=lambda: sum(
                1 for c in self._clients.values() if c.delta is not None
            ),
        )
        self._sock, self.address, self._unix_path = _bind_control_socket(bind)
        self._sock.listen(16)
        self._sock.setblocking(False)
        reactor.add_reader(self._sock.fileno(), self._accept)

    # -- connection lifecycle ------------------------------------------

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            conn.setblocking(False)
            client = _Client(conn)
            self._clients[client.fd] = client
            self._reactor.add_reader(
                client.fd, lambda fd=client.fd: self._on_readable(fd)
            )

    def _on_readable(self, fd: int) -> None:
        client = self._clients.get(fd)
        if client is None:
            return
        try:
            data = client.sock.recv(4096)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            self._drop(fd)
            return
        client.inbuf += data
        if b"\n" not in client.inbuf:
            if len(client.inbuf) > 1024:
                self._drop(fd)  # garbage, not a request line
            return
        line, _, rest = bytes(client.inbuf).partition(b"\n")
        client.inbuf = bytearray(rest)
        command = line.decode("utf-8", errors="replace").strip()
        self.handle_command(client, command)
        self._flush_client(fd)

    def _drop(self, fd: int) -> None:
        client = self._clients.pop(fd, None)
        if client is None:
            return
        self._reactor.remove_reader(fd)
        try:
            client.sock.close()
        except OSError:
            pass
        if not self._subscribers() and self._feed_timer is not None:
            self._feed_timer.cancel()
            self._feed_timer = None

    def _subscribers(self) -> list[_Client]:
        return [c for c in self._clients.values() if c.delta is not None]

    # -- protocol -------------------------------------------------------

    def handle_command(self, client: _Client, command: str) -> None:
        """Queue the response for one request line onto ``client``."""
        parts = command.split()
        verb = parts[0] if parts else ""
        if verb == "scrape":
            mode = parts[1] if len(parts) > 1 else "json"
            self.scrapes.inc()
            if mode == "prom":
                payload = render_prometheus(self._registry.snapshot())
            elif mode == "json":
                payload = _json_line(self._registry.snapshot())
            else:
                payload = _json_line({"error": f"unknown scrape mode {mode!r}"})
            client.outbuf += payload.encode()
            client.closing = True
        elif verb == "health":
            if self.health is None:
                payload = _json_line({"error": "no health monitor attached"})
            else:
                payload = _json_line(self.health.state())
            client.outbuf += payload.encode()
            client.closing = True
        elif verb == "watch":
            client.delta = SnapshotDelta(self._registry)
            if self.health is not None:
                client.alert_seq = self.health.alert_seq
            client.outbuf += _json_line(client.delta.prime()).encode()
            self.feed_lines.inc()
            if self._feed_timer is None:
                self._feed_timer = self._reactor.call_later(
                    self.feed_interval_ms, self._feed_tick
                )
        else:
            client.outbuf += _json_line(
                {"error": f"unknown command {command!r}"}
            ).encode()
            client.closing = True

    def _feed_tick(self) -> None:
        self._feed_timer = None
        subscribers = self._subscribers()
        if not subscribers:
            return
        for client in subscribers:
            doc = client.delta.collect()
            if self.health is not None:
                alerts = self.health.alerts_since(client.alert_seq)
                if alerts:
                    client.alert_seq = alerts[-1]["seq"]
                    if doc is None:
                        doc = {"schema": DELTA_SCHEMA, "seq": None}
                    doc["alerts"] = alerts
            if doc is None:
                continue
            client.outbuf += _json_line(doc).encode()
            self.feed_lines.inc()
            self._flush_client(client.fd)
        if self._subscribers():
            self._feed_timer = self._reactor.call_later(
                self.feed_interval_ms, self._feed_tick
            )

    # -- non-blocking writes -------------------------------------------

    def _flush_client(self, fd: int) -> None:
        client = self._clients.get(fd)
        if client is None:
            return
        if len(client.outbuf) > self.max_buffer:
            # Slow subscriber: its backlog would grow without bound.
            self.dropped.inc()
            self._drop(fd)
            return
        while client.outbuf:
            try:
                sent = client.sock.send(bytes(client.outbuf))
            except (BlockingIOError, InterruptedError):
                break
            except OSError as exc:
                if exc.errno in (errno.EPIPE, errno.ECONNRESET):
                    self._drop(fd)
                    return
                break
            if sent <= 0:
                break
            del client.outbuf[:sent]
        if client.outbuf:
            if self._drain_timer is None:
                self._drain_timer = self._reactor.call_later(
                    DRAIN_INTERVAL_MS, self._drain_tick
                )
        elif client.closing:
            self._drop(fd)

    def _drain_tick(self) -> None:
        self._drain_timer = None
        pending = [
            fd for fd, c in self._clients.items() if c.outbuf
        ]
        for fd in pending:
            self._flush_client(fd)

    # -- teardown -------------------------------------------------------

    def close(self) -> None:
        """Close the listener, every client, and the Unix path if any."""
        if self._closed:
            return
        self._closed = True
        for fd in list(self._clients):
            self._drop(fd)
        self._reactor.remove_reader(self._sock.fileno())
        try:
            self._sock.close()
        except OSError:
            pass
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
        if self._feed_timer is not None:
            self._feed_timer.cancel()
            self._feed_timer = None
        if self._drain_timer is not None:
            self._drain_timer.cancel()
            self._drain_timer = None


def _json_line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Blocking client helpers (CLI side)


def connect_control(target: str, timeout: float = 5.0) -> socket.socket:
    """Connect to a telemetry endpoint: ``host:port`` or a socket path."""
    if "/" in target:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(target)
        return sock
    host, _, port = target.rpartition(":")
    if not host or not port.isdigit():
        raise ObservabilityError(
            f"telemetry target {target!r} must be host:port or a socket path"
        )
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect((host, int(port)))
    return sock


def request(target: str, command: str, timeout: float = 5.0) -> bytes:
    """One-shot request: send a command line, read until the server closes."""
    sock = connect_control(target, timeout)
    try:
        sock.sendall(command.encode() + b"\n")
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)
    finally:
        sock.close()


def scrape(target: str, mode: str = "json", timeout: float = 5.0):
    """Scrape a live endpoint: a snapshot dict, or prom exposition text."""
    raw = request(target, f"scrape {mode}", timeout)
    if mode == "prom":
        return raw.decode()
    doc = json.loads(raw)
    if "error" in doc and "schema" not in doc:
        raise ObservabilityError(doc["error"])
    validate_snapshot(doc)
    return doc


def health(target: str, timeout: float = 5.0) -> dict:
    """Fetch the health monitor's current state document."""
    return json.loads(request(target, "health", timeout))


def watch(
    target: str,
    timeout: float = 30.0,
    stop: Callable[[], bool] | None = None,
) -> Iterator[dict]:
    """Subscribe to the delta feed; yields parsed JSONL documents.

    The first document is a full snapshot, later ones are deltas (feed
    them all through :func:`~repro.obs.registry.apply_delta`). Iteration
    ends when the server closes or ``stop()`` returns True.
    """
    sock = connect_control(target, timeout)
    try:
        sock.sendall(b"watch\n")
        buffer = bytearray()
        while True:
            if stop is not None and stop():
                return
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                return
            if not chunk:
                return
            buffer += chunk
            while b"\n" in buffer:
                line, _, rest = bytes(buffer).partition(b"\n")
                buffer = bytearray(rest)
                if line.strip():
                    yield json.loads(line)
    finally:
        sock.close()
