"""loopback_typing: the real daemon on real UDP sockets.

The daemon runs as ``python -m repro.cli serve --sessions 2 --bind
127.0.0.1 /bin/cat`` in a child process. This process is the load
generator: two :class:`~repro.session.core.ClientCore` objects on one
:class:`~repro.runtime.RealReactor` (one thread, two sockets) type
seeded lowercase text on an open-loop Poisson schedule in wall time.

Each keystroke is timed from when it was due, not from when the
generator got round to typing it, and the report says how late the
generator ran. A keystroke counts as echoed when the client's copy of
the server screen (predictions ignored) shows its character: ``cat`` on
a pty in canonical mode echoes every typed character where the cursor
is, so with no newline typed, character *k* of a session lands at row
``k // width``, column ``k % width``.

The traced run starts the daemon through ``tracelaunch.py`` instead, which
installs the same span wrappers in the child before the daemon is built.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from random import Random

from repro.crypto.keys import Base64Key
from repro.crypto.session import Session
from repro.network.connection import UdpConnection
from repro.prediction.engine import DisplayPreference
from repro.runtime.reactor import RealReactor
from repro.session.core import ClientCore
from repro.terminal.display import Display

from common import (HostSpeed, beyond, median, more_setups, percentile,
                    timed_setup)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SESSIONS = 2
#: Keystrokes per second per session (Poisson arrivals).
RATE_PER_S = 60.0
WIDTH, HEIGHT = 80, 24
#: A session types at most what fits on its screen without scrolling.
MAX_KEYS = WIDTH * (HEIGHT - 1)
DRAIN_S = 3.0
#: How often the generator samples the host's speed.
SPEED_EVERY_MS = 100.0
START_TIMEOUT_S = 30.0


def _proc_run_ns(pid: int) -> int:
    """Nanoseconds process ``pid`` has run on a CPU (its main thread)."""
    with open(f"/proc/{pid}/schedstat", encoding="ascii") as fh:
        return int(fh.read().split()[0])


def _proc_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Daemon:
    """The daemon child process and its connect lines."""

    def __init__(self, trace_out: str | None = None) -> None:
        args = ["--sessions", str(SESSIONS), "--bind", "127.0.0.1",
                "/bin/cat"]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "tracelaunch.py"),
                   trace_out, *args]
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        self.lines: list[tuple[int, str, int]] = []
        deadline = time.monotonic() + START_TIMEOUT_S
        buf = b""
        while len(self.lines) < SESSIONS:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.proc.stdout], [], [],
                                              left)[0]:
                self.stop()
                raise RuntimeError("daemon printed no connect lines")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                self.stop()
                raise RuntimeError("daemon exited before connecting")
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                parts = line.decode().split()
                if parts[:2] == ["MOSH", "CONNECT"]:
                    self.lines.append((int(parts[2]), parts[3],
                                       int(parts[4])))

    def stop(self) -> int:
        """SIGTERM, then wait; the traced launcher writes its ledger."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        return code


class Generator:
    """Two clients on one reactor, typing and timing echoes."""

    def __init__(self, daemon: Daemon, texts: list[str], ledger=None) -> None:
        self.ledger = ledger
        self.reactor = RealReactor()
        self.clients: list[ClientCore] = []
        self.conns: list[UdpConnection] = []
        self.texts = texts
        self.pending: list[list[tuple[float, int]]] = []
        self.samples: list[float] = []
        self.instant = 0
        self.render_bytes = 0
        for n, (port, key, cid) in enumerate(daemon.lines):
            conn = UdpConnection(
                Session(Base64Key.from_printable(key)), is_server=False,
                bind_host="127.0.0.1", conn_id=cid)
            conn.set_remote_addr(("127.0.0.1", port))
            core = ClientCore(
                self.reactor, conn, WIDTH, HEIGHT,
                preference=DisplayPreference.ALWAYS, heartbeat_ms=1000.0,
                label=f"c{cid}", causal=True, shared_clock=False)
            self.reactor.add_reader(conn.fileno(), conn.receive_ready)
            painter = {"fb": None}
            core.on_display_change = self._h(
                lambda now, c=core, p=painter: self._render(c, p), "render")
            inner = core.transport.on_remote_state
            core.transport.on_remote_state = self._h(
                lambda now, s=n, f=inner: self._frame(s, f, now),
                "echo_meter")
            if ledger is not None:
                ledger.tag(cid, core, core.pump, core.transport,
                           core.transport.receiver, core.predictor, conn,
                           conn.session, core.causal)
            self.clients.append(core)
            self.conns.append(conn)
            self.pending.append([])
            core.kick()

    def _h(self, fn, name: str):
        if self.ledger is None:
            return fn
        return self.ledger.wrap(fn, "harness." + name, method=False)

    def _render(self, core, painter) -> None:
        shown = core.display()
        self.render_bytes += len(Display.new_frame(painter["fb"], shown))
        painter["fb"] = shown.copy()

    def _frame(self, s: int, inner, now: float) -> None:
        inner(now)
        fb = self.clients[s].remote_terminal.fb
        text = self.texts[s]
        pending = self.pending[s]
        done = 0
        for due, k in pending:
            row, col = divmod(k, WIDTH)
            if fb.cell_at(row, col).contents != text[k]:
                break
            self.samples.append(now - due)
            done += 1
        if done:
            del pending[:done]

    def connected(self) -> bool:
        return all(c.transport.remote_state_num > 0 for c in self.clients)

    def wait_connected(self, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        while not self.connected():
            if time.monotonic() > deadline:
                raise RuntimeError("no first exchange with the daemon")
            self.reactor.run_once(20.0)

    def type_key(self, s: int, k: int, due: float) -> None:
        flags = self.clients[s].type_bytes(self.texts[s][k].encode())
        self.instant += any(flags)
        self.pending[s].append((due, k))

    def close(self) -> None:
        for conn in self.conns:
            self.reactor.remove_reader(conn.fileno())
            conn.close()


def make_texts(seed: int, seconds: float) -> tuple[list[str], list[tuple]]:
    """Per-session text and the merged (offset_ms, session, index) schedule."""
    texts, schedule = [], []
    for s in range(SESSIONS):
        rng = Random(f"loopback|{seed}|{s}")
        at, chars = rng.uniform(0.0, 20.0), []
        while len(chars) < MAX_KEYS and at < seconds * 1000.0:
            schedule.append((at, s, len(chars)))
            chars.append(chr(rng.randrange(ord("a"), ord("z") + 1)))
            at += rng.expovariate(RATE_PER_S / 1000.0)
        texts.append("".join(chars))
    schedule.sort()
    return texts, schedule


def _setup(texts, trace_out=None, ledger=None):
    """Start the daemon and connect both clients; returns them and the
    wall seconds that took, at the nominal host speed."""
    def build():
        daemon = Daemon(trace_out)
        try:
            gen = Generator(daemon, texts, ledger)
            gen.wait_connected(START_TIMEOUT_S)
        except BaseException:
            daemon.stop()
            raise
        return daemon, gen

    (daemon, gen), took = timed_setup(build)
    return daemon, gen, took


def _measure(daemon: Daemon, gen: Generator, schedule, ledger=None) -> dict:
    """Type the schedule, drain, check screens; returns measurements."""
    pid = daemon.proc.pid
    reactor = gen.reactor
    wire0 = sum(c.bytes_sent + c.bytes_received for c in gen.conns)
    if ledger is not None:
        ledger.clear()
    speed = HostSpeed()
    sample = gen._h(speed.sample, "speed_kernel")
    dcpu0 = _proc_run_ns(pid)
    cpu0 = time.process_time_ns()
    start = reactor.now() + 50.0
    next_sample = start
    lags: list[float] = []
    type_key = gen._h(gen.type_key, "typist")
    i = 0
    drain_end = None
    while True:
        now = reactor.now()
        if now >= next_sample:
            sample()
            next_sample = now + SPEED_EVERY_MS
        while i < len(schedule) and start + schedule[i][0] <= now:
            at, s, k = schedule[i]
            lags.append(now - (start + at))
            type_key(s, k, start + at)
            i += 1
        if i == len(schedule):
            if drain_end is None:
                drain_end = now + DRAIN_S * 1000.0
            if now >= drain_end or not any(gen.pending):
                break
        wait = 20.0 if i == len(schedule) else start + schedule[i][0] - now
        reactor.run_once(max(0.0, min(20.0, wait)))
    # A last stretch so both screens converge before they are read.
    reactor.run_for(300.0)
    cpu_ns = time.process_time_ns() - cpu0
    dcpu = (_proc_run_ns(pid) - dcpu0) / 1e9
    wire = sum(c.bytes_sent + c.bytes_received for c in gen.conns) - wire0
    typed = len(schedule)
    unechoed = sum(len(p) for p in gen.pending)
    errors = []
    for s, core in enumerate(gen.clients):
        fb = core.remote_terminal.fb
        text = gen.texts[s]
        for row in range(HEIGHT):
            want = text[row * WIDTH:(row + 1) * WIDTH]
            if fb.row_text(row).rstrip() != want:
                errors.append(f"session {s}: screen row {row} does not show "
                              "the typed text")
                break
    if typed != len(gen.samples) + unechoed:
        errors.append("typed != echoed + unechoed")
    # The speed samples ran in this process but are not its work.
    gen_cpu = (cpu_ns - speed.ns) / 1e9
    echoed = len(gen.samples)
    return {
        "typed": typed, "echoed": echoed, "unechoed": unechoed,
        "instant": gen.instant, "samples": gen.samples,
        "gen_cpu_s": gen_cpu, "daemon_cpu_s": dcpu,
        "speed_scale": speed.scale,
        "region_cpu_ns": cpu_ns,
        "lag_p50_ms": percentile(lags, 50), "lag_p99_ms": percentile(lags, 99),
        "lag_max_ms": max(lags) if lags else 0.0,
        "wire_kb": wire / 1000.0, "peak_rss_mb": _proc_hwm_mb(pid),
        "errors": errors,
    }


def _derive(m: dict) -> dict:
    """Rates over the run, CPU scaled to the nominal host speed."""
    scale = m["speed_scale"]
    cpu = (m["gen_cpu_s"] + m["daemon_cpu_s"]) * scale
    return {
        "keys_per_s": m["echoed"] / cpu,
        # Every echoed key is one byte the pty echoed to the terminal.
        "host_kb_per_s": m["echoed"] / 1000.0 / cpu,
        "daemon_cpu_us_per_key": m["daemon_cpu_s"] * scale * 1e6
        / max(1, m["typed"]),
        "echo_p50_ms": percentile(m["samples"], 50, m["unechoed"]),
        "echo_p99_ms": percentile(m["samples"], 99, m["unechoed"]),
        "echo_samples": len(m["samples"]) + m["unechoed"],
        "echo_p99_beyond": beyond(m["samples"], 99, m["unechoed"]),
        "instant_frac": m["instant"] / max(1, m["typed"]),
        "cpu_per_key_s": cpu / max(1, m["typed"]),
    }


def run_loopback(seed: int, seconds: float, trace: bool) -> dict:
    texts, schedule = make_texts(seed, seconds)
    setups = []
    while True:
        daemon, gen, took = _setup(texts)
        setups.append(took)
        if not more_setups(setups):
            break
        gen.close()
        daemon.stop()
    try:
        meas = _measure(daemon, gen, schedule)
    finally:
        gen.close()
        daemon.stop()
    meas.update(_derive(meas))
    result = {"traffic": "loopback", "setups": setups, "run": meas,
              "errors": list(meas.pop("errors")), "typed": meas["typed"],
              "unechoed": meas["unechoed"]}
    result["run"]["samples"] = len(meas["samples"])
    if trace and not result["errors"]:
        result.update(_traced(seed, texts, schedule, meas))
    return result


def _traced(seed: int, texts, schedule, base: dict) -> dict:
    import json

    from ledger import SpanLedger, closure

    ledger = SpanLedger()
    ledger.install()
    out = os.path.join(OUT, f"loopback_typing-{seed}")
    os.makedirs(OUT, exist_ok=True)
    child_out = out + "-daemon"
    daemon, gen, _ = _setup(texts, child_out, ledger)
    try:
        meas = _measure(daemon, gen, schedule, ledger)
        close = closure(ledger, meas["region_cpu_ns"])
    finally:
        gen.close()
        daemon.stop()
    ledger.dump(out + "-generator")
    by_name = ledger.by_name()
    ledger.uninstall()
    errors = list(meas["errors"])
    with open(child_out + ".json", encoding="utf-8") as fh:
        child = json.load(fh)
    for name, agg in child["by_name"].items():
        mine = by_name.setdefault(name, {"calls": 0, "self_ms": 0.0,
                                         "bytes": 0, "busy": 0})
        for key in mine:
            mine[key] += agg[key]
    worst = max((close, child["closure"]), key=lambda c: abs(c["err_pct"]))
    for side, c in (("generator", close), ("daemon", child["closure"])):
        if not c["ok"]:
            errors.append(f"{side} ledger does not close: {c}")
    traced = _derive(meas)
    overhead = 100.0 * (traced["cpu_per_key_s"] / base["cpu_per_key_s"] - 1)
    stats = [c.predictor.stats for c in gen.clients]
    return {
        "errors": errors, "layers": by_name,
        "closure": {"generator": close, "daemon": child["closure"]},
        "extra": {
            "keys": meas["typed"],
            "auth_failures": child["auth_failures"] + sum(
                c.session.stats.auth_failures for c in gen.conns),
            "rejected": child["rejected"],
            "predictions_made": sum(s.predictions_made for s in stats),
            "confirmed": sum(s.confirmed for s in stats),
            "syscalls_per_pkt": child["syscalls_per_pkt"],
            "timer_lag_p99_ms": child["timer_lag_p99_ms"],
            "overhead_pct": overhead,
            "closure_err_pct": worst["err_pct"],
        },
    }


def loopback_metrics(result: dict) -> dict:
    run = result["run"]
    return {
        "setup_s": median(result["setups"]),
        "keys_per_s": run["keys_per_s"],
        "host_kb_per_s": run["host_kb_per_s"],
        "daemon_cpu_us_per_key": run["daemon_cpu_us_per_key"],
        "echo_p50_ms": run["echo_p50_ms"],
        "echo_p99_ms": run["echo_p99_ms"],
        "instant_frac": run["instant_frac"],
        "wire_kb": run["wire_kb"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
