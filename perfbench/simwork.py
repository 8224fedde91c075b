"""The three simulator workloads: fleet_typing, bulk_scroll, hostile_flood.

Each runs the whole system — clients, daemon, links, idle sessions and,
for ``hostile_flood``, an attacker — in this one process, on the
simulated clock. Load is open loop on that clock: every keystroke, host
write and attack datagram is scheduled from inputs generated up front
from the workload seed (:func:`make_inputs`), so two episodes with one
seed put byte-identical datagrams on the wire.

One :class:`SimEpisode` is one set-up (daemon, sessions, first exchange)
plus one drive (typing window, then a drain until every keystroke has
echoed). The runner repeats episodes for the measuring time and reports
medians; the simulated-clock figures repeat exactly across episodes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from random import Random

from repro.crypto.keys import Base64Key
from repro.daemon.mux import SessionMux
from repro.network.batch import RxBatcher, WireBatcher
from repro.network.packet import encode_conn_id
from repro.session.core import ServerCore
from repro.session.inprocess import InProcessDaemon
from repro.simnet.host import CLIENT_SIDE
from repro.simnet.link import LinkConfig
from repro.terminal.display import Display
from repro.traces import generate_persona

from common import HostSpeed, beyond, percentile, timed_setup, wire_digest

#: Access links (uplink, downlink, weight), one-way delays: the wifi /
#: LTE / EV-DO mix of the fleet capacity benchmark, with a little jitter
#: on wifi too, so no latency percentile sits on one exact value.
LINK_MIX = {
    "wifi": (LinkConfig(delay_ms=5.0, jitter_ms=1.0),
             LinkConfig(delay_ms=5.0, jitter_ms=1.0), 5),
    "lte": (LinkConfig(delay_ms=40.0, jitter_ms=5.0),
            LinkConfig(delay_ms=40.0, jitter_ms=5.0), 3),
    "evdo": (LinkConfig(delay_ms=110.0, jitter_ms=15.0, loss=0.005),
             LinkConfig(delay_ms=110.0, jitter_ms=15.0, loss=0.005), 2),
}
#: bulk_scroll's link: lossy LTE, about 2% loss each way.
LOSSY_LTE = (LinkConfig(delay_ms=40.0, jitter_ms=5.0, loss=0.02),
             LinkConfig(delay_ms=40.0, jitter_ms=5.0, loss=0.02), 1)
#: Path of every address without its own profile (the attacker's).
ATTACK_LINK = LinkConfig(delay_ms=2.0)

PERSONAS = ("shell-heavy", "editor-vim", "chat-irssi")
WIDTH, HEIGHT = 80, 24
#: Simulated time per timed slice of a drive, the longest drain after the
#: typing window, and slices run after the drain so the last frames and
#: acks settle.
SLICE_MS = 250.0
DRAIN_MS = 20_000.0
SETTLE_SLICES = 4
#: Attack mix: datagrams per simulated second of each kind.
ATTACK_RATES = {"forged_v2": 40.0, "replay": 25.0, "truncated": 15.0,
                "garbage": 10.0, "v1_unknown": 4.0}


@dataclass(frozen=True)
class SimSpec:
    sessions: int
    typing_every: int           # 1 in N sessions types
    type_ms: float              # typing window, simulated
    personas: tuple = PERSONAS
    max_think_ms: float = 1500.0  # longer pauses are sped up to this
    lossy_lte: bool = False     # all sessions on LOSSY_LTE, else LINK_MIX
    scroll_interval_ms: float = 0.0   # build-log line period, 0 = none
    attack: bool = False


SPECS = {
    "fleet_typing": SimSpec(sessions=256, typing_every=8, type_ms=20_000.0),
    "bulk_scroll": SimSpec(sessions=8, typing_every=1, type_ms=32_000.0,
                           personas=("shell-heavy",), max_think_ms=500.0,
                           lossy_lte=True, scroll_interval_ms=100.0),
    "hostile_flood": SimSpec(sessions=64, typing_every=8, type_ms=40_000.0,
                             attack=True),
}


def _rng(seed: int, *parts) -> Random:
    text = "|".join(str(p) for p in (seed,) + parts)
    return Random(int.from_bytes(hashlib.sha256(text.encode()).digest()[:8],
                                 "big"))


@dataclass
class Inputs:
    """Everything the program will be fed, derived from the seed."""

    keys: list = field(default_factory=list)
    profiles: list = field(default_factory=list)
    #: session index -> (trace, [(offset_ms, step_idx)])
    typing: dict = field(default_factory=dict)
    #: session index -> [(offset_ms, bytes)]
    scroll: dict = field(default_factory=dict)
    #: [(offset_ms, kind, rng draws)]
    attack: list = field(default_factory=list)
    net_seed: int = 0


def _build_line(rng: Random, pct: int) -> bytes:
    words = ("core", "net", "term", "crypto", "ssp", "ui", "io", "proto")
    color = rng.choice((31, 32, 33, 34, 35, 36))
    obj = f"src/{rng.choice(words)}/{rng.choice(words)}_{rng.randrange(100)}"
    kind = rng.choice(("Building CXX object", "Linking CXX library",
                       "Generating", "Scanning dependencies of"))
    return (f"\x1b[{color}m[{pct:3d}%]\x1b[0m {kind} \x1b[1m{obj}.o"
            f"\x1b[0m\r\n").encode()


def make_inputs(workload: str, spec: SimSpec, seed: int) -> Inputs:
    inputs = Inputs(net_seed=_rng(seed, workload, "net").getrandbits(32))
    # The replayed traces are a fixed corpus, like the paper's recorded
    # traces, and so is how they pair with access links: slot n replays
    # persona n's trace on the n-th link of the mix. The seed decides which
    # session holds which slot, when each starts typing, the idle
    # sessions' links, every session key and every loss and jitter draw,
    # so seeds differ in inputs but not in how much of each kind.
    typing = list(range(0, spec.sessions, spec.typing_every))
    idle = [i for i in range(spec.sessions) if i % spec.typing_every]
    deck = [n for n, (_, _, w) in LINK_MIX.items() for _ in range(w)]
    slots = list(range(len(typing)))
    _rng(seed, workload, "slots").shuffle(slots)
    inputs.profiles = ["lossy_lte"] * spec.sessions
    if not spec.lossy_lte:
        for i, n in zip(typing, slots):
            inputs.profiles[i] = deck[n % len(deck)]
        drawn = [deck[k % len(deck)] for k in range(len(idle))]
        _rng(seed, workload, "links").shuffle(drawn)
        for i, profile in zip(idle, drawn):
            inputs.profiles[i] = profile
    for i in range(spec.sessions):
        digest = hashlib.sha256(f"{workload}|{seed}|key|{i}".encode()).digest()
        inputs.keys.append(Base64Key(digest[:16]))
    for i, n in zip(typing, slots):
        trace = generate_persona(spec.personas[n % len(spec.personas)],
                                 seed=n, budget=600)
        at = _rng(seed, workload, "typing", i).uniform(0.0, 1000.0)
        schedule = []
        for idx, step in enumerate(trace.steps):
            at += min(step.think_ms, spec.max_think_ms)
            if at >= spec.type_ms:
                break
            schedule.append((at, idx))
        inputs.typing[i] = (trace, schedule)
    if spec.scroll_interval_ms:
        for i in range(spec.sessions):
            rng = _rng(seed, workload, "scroll", i)
            lines = []
            at = rng.uniform(0.0, spec.scroll_interval_ms)
            n = 0
            while at < spec.type_ms:
                lines.append((at, _build_line(rng, n % 101)))
                at += spec.scroll_interval_ms
                n += 1
            inputs.scroll[i] = lines
    if spec.attack:
        # A fixed number of each kind at seeded times, so seeds differ in
        # the attack's bytes and timing but not in its size.
        rng = _rng(seed, workload, "attack")
        for kind, rate in ATTACK_RATES.items():
            for _ in range(round(rate * spec.type_ms / 1000.0)):
                inputs.attack.append((rng.uniform(0.0, spec.type_ms), kind,
                                      rng.getrandbits(64)))
        inputs.attack.sort()
    return inputs


class DaemonMeter:
    """CPU the daemon side spends, metered at its entry points.

    Entry points are datagram dispatch, the per-tick batch flushes, host
    writes, echo-ack timers and the server pumps' own timers. Nested
    entries bill once, at the outermost one.
    """

    def __init__(self) -> None:
        self.cpu_ns = 0
        self.depth = 0

    def wrap(self, fn):
        clock = time.thread_time_ns
        meter = self

        def metered(*args, **kwargs):
            if meter.depth:
                return fn(*args, **kwargs)
            meter.depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                meter.cpu_ns += clock() - t0
                meter.depth = 0

        return metered

    def install(self) -> None:
        self._saved = []
        for owner, attr in ((SessionMux, "dispatch"),
                            (WireBatcher, "flush"), (RxBatcher, "flush"),
                            (ServerCore, "host_write"),
                            (ServerCore, "_echo_ack_due")):
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self.wrap(getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


@dataclass
class _Typist:
    """One typing session: server-side script, client-side echo meter."""

    trace: object
    client: object
    server: object
    pending: list = field(default_factory=list)   # (typed_at, step)
    marks: dict = field(default_factory=dict)     # step -> state num
    expected: bytes = b""
    matched: int = 0
    step_idx: int = 0
    step_left: int = 0
    horizon: float = 0.0
    typed: int = 0
    silent: int = 0
    instant: int = 0
    samples: list = field(default_factory=list)


class SimEpisode:
    """One set-up plus one drive of a simulator workload."""

    def __init__(self, workload: str, spec: SimSpec, inputs: Inputs,
                 meter: DaemonMeter, ledger=None) -> None:
        self.workload = workload
        self.spec = spec
        self.inputs = inputs
        self.meter = meter
        self.ledger = ledger
        self.errors: list[str] = []
        self.wire: list[tuple] = []
        self.wire_bytes = 0
        self.host_bytes = 0
        self.render_bytes = 0
        self.idle_input = 0
        self.attack_sent = 0
        self.to_attacker = 0
        self.captured: list[bytes] = []
        self.arrived = 0

    def _h(self, fn, name: str):
        """Harness callbacks get their own spans in the traced run."""
        if self.ledger is None:
            return fn
        return self.ledger.wrap(fn, "harness." + name, method=False)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Build the daemon, spawn the sessions, finish the first exchange.

        Returns the wall seconds it took, at the nominal host speed.
        """
        return timed_setup(self._build)[1]

    def _build(self) -> None:
        spec, inputs = self.spec, self.inputs
        daemon = InProcessDaemon(
            ATTACK_LINK, ATTACK_LINK, sessions=0, width=WIDTH,
            height=HEIGHT, seed=inputs.net_seed,
            # Rings sized to the fleet, except under attack: there every
            # ring keeps its default size so no drop fate is overwritten.
            flight_budget=None if spec.attack else 65536,
        )
        self.daemon = daemon
        network = daemon.network
        send = network.send_datagram
        self._raw_send = send
        wire = self.wire

        def tap(side, src, dst, raw):
            if dst.startswith("attacker"):
                self.to_attacker += 1
            wire.append((daemon.loop.now(), side, src, dst, bytes(raw)))
            self.wire_bytes += len(raw)
            send(side, src, dst, raw)

        network.send_datagram = self._h(tap, "wire_tap")
        self.typists: dict[int, _Typist] = {}
        for i in range(spec.sessions):
            record, client = daemon.add_session(key=inputs.keys[i])
            if inputs.profiles[i] == "lossy_lte":
                up, down, _ = LOSSY_LTE
            else:
                up, down, _ = LINK_MIX[inputs.profiles[i]]
            network.add_addr_profile(
                client.transport.endpoint.local_addr, up, down)
            core = record.core
            core.pump.kick = self.meter.wrap(core.pump.kick)
            painter = {"fb": None}
            client.on_display_change = self._h(
                lambda now, c=client, p=painter: self._render(c, p), "render")
            if i in inputs.typing:
                trace, _ = inputs.typing[i]
                typist = _Typist(trace, client, core)
                typist.expected = b"".join(s.keys for s in trace.steps)
                typist.step_left = len(trace.steps[0].keys)
                core.transport.sender.record_send_log = True
                core.on_input = self._h(
                    lambda data, t=typist: self._feed(t, data), "server_app")
                inner = client.transport.on_remote_state
                client.transport.on_remote_state = self._h(
                    lambda now, t=typist, f=inner: self._frame(t, f, now),
                    "echo_meter")
                self.typists[i] = typist
            else:
                core.on_input = self._h(self._idle_input, "server_app")
            if self.ledger is not None:
                endpoint = client.transport.endpoint
                self.ledger.tag(
                    record.conn_id, core, core.pump, core.transport,
                    core.transport.receiver, core.terminal, record.endpoint,
                    record.endpoint.session, client, client.pump,
                    client.transport, client.transport.receiver,
                    client.predictor, endpoint, endpoint.session,
                    endpoint.flight, client.causal)
        daemon.port.deliver = self._h(self._capture(daemon.port.deliver),
                                      "capture")
        self._connect()

    def _connect(self) -> None:
        daemon = self.daemon
        for client in daemon.clients.values():
            client.kick()
        for record in daemon.manager.records():
            record.core.kick()
        for _ in range(40):
            daemon.run_for(250.0)
            if all(r.endpoint.last_heard is not None
                   for r in daemon.manager.records()) and all(
                    c.transport.remote_state_num > 0
                    for c in daemon.clients.values()):
                return
        self.errors.append("first exchange did not finish for every session")

    # -- harness callbacks ---------------------------------------------------

    def _render(self, client, painter) -> None:
        shown = client.display()
        self.render_bytes += len(Display.new_frame(painter["fb"], shown))
        painter["fb"] = shown.copy()

    def _idle_input(self, data: bytes) -> None:
        self.idle_input += len(data)

    def _capture(self, deliver):
        captured = self.captured

        def capture(raw, src_addr):
            self.arrived += 1
            if self.spec.attack and not src_addr.startswith("attacker"):
                captured.append(bytes(raw))
                if len(captured) > 512:
                    del captured[:256]
            deliver(raw, src_addr)

        return capture

    def _feed(self, t: _Typist, data: bytes) -> None:
        """The host application: expects exactly the trace's keys."""
        for byte in data:
            if t.matched >= len(t.expected) or byte != t.expected[t.matched]:
                self.errors.append(
                    f"server app got byte {byte:#x} its client did not send")
                return
            t.matched += 1
            t.step_left -= 1
            if t.step_left == 0:
                self._play(t, t.step_idx)
                t.step_idx += 1
                if t.step_idx < len(t.trace.steps):
                    t.step_left = len(t.trace.steps[t.step_idx].keys)

    def _play(self, t: _Typist, idx: int) -> None:
        loop = self.daemon.loop
        for n, write in enumerate(t.trace.steps[idx].outputs):
            # Host writes replay in trace order even when a later step's
            # keys arrive before an earlier step's delayed output.
            when = max(loop.now() + write.delay_ms, t.horizon)
            t.horizon = when + 1e-6

            def emit(data=write.data, first=(n == 0)):
                if first:
                    log = t.server.transport.sender.send_log
                    t.marks[idx] = log[-1][1] if log else 0
                self.host_bytes += len(data)
                t.server.host_write(data)

            loop.schedule_at(when, self._h(emit, "host_script"))

    def _type(self, t: _Typist, idx: int) -> None:
        step = t.trace.steps[idx]
        now = self.daemon.loop.now()
        flags = t.client.type_bytes(step.keys)
        t.typed += 1
        t.instant += any(flags)
        if step.outputs:
            t.pending.append((now, idx))
        else:
            t.silent += 1

    def _frame(self, t: _Typist, inner, now: float) -> None:
        inner(now)
        num = t.client.transport.remote_state_num
        pending = t.pending
        done = 0
        for typed_at, idx in pending:
            mark = t.marks.get(idx)
            if mark is None or mark >= num:
                break
            t.samples.append(now - typed_at)
            done += 1
        if done:
            del pending[:done]

    def _attack(self, kind: str, draw: int) -> None:
        rng = Random(draw)
        addr = f"attacker-{rng.randrange(1 << 20)}"
        cids = self.daemon.conn_ids
        if kind == "forged_v2":
            raw = (encode_conn_id(rng.choice(cids))
                   + rng.randbytes(rng.randrange(24, 300)))
        elif kind == "replay" and self.captured:
            raw = rng.choice(self.captured)
        elif kind == "truncated" and self.captured:
            whole = rng.choice(self.captured)
            raw = whole[:rng.randrange(1, len(whole))]
        elif kind == "v1_unknown":
            raw = bytes([rng.randrange(0xD6)]) + rng.randbytes(
                rng.randrange(40, 300))
        else:
            raw = rng.randbytes(rng.randrange(1, 8))
        self.attack_sent += 1
        self._raw_send(CLIENT_SIDE, addr, InProcessDaemon.DAEMON_ADDR, raw)

    # -- drive ---------------------------------------------------------------

    def drive(self) -> dict:
        """Typing window plus drain; returns the drive's measurements."""
        daemon, spec, inputs = self.daemon, self.spec, self.inputs
        loop = daemon.loop
        start = loop.now()
        for i, (trace, schedule) in inputs.typing.items():
            typist = self.typists[i]
            core = typist.server
            for write in trace.startup:
                loop.schedule_at(start + write.delay_ms, self._h(
                    lambda c=core, d=write.data: self._host_output(c, d),
                    "host_script"))
            fire = self._h(self._type, "typist")
            for at, idx in schedule:
                loop.schedule_at(start + at,
                                 lambda t=typist, k=idx: fire(t, k))
        for i, lines in inputs.scroll.items():
            core = daemon.record(daemon.conn_ids[i]).core
            for at, data in lines:
                loop.schedule_at(start + at, self._h(
                    lambda c=core, d=data: self._host_output(c, d), "build_log"))
        fire_attack = self._h(self._attack, "attacker")
        for at, kind, draw in inputs.attack:
            loop.schedule_at(start + at,
                             lambda k=kind, d=draw: fire_attack(k, d))
        counted0, arrived0, accepted0 = (
            self._counted(), self.arrived, self._accepted())
        # The drive runs in fixed slices of simulated time, each timed on
        # the process and daemon CPU clocks, with a host-speed sample
        # (outside the timed part) before each.
        speed = HostSpeed()
        sample = self._h(speed.sample, "speed_kernel")
        cpu = daemon_cpu = 0
        meter = self.meter

        def run_slice() -> None:
            nonlocal cpu, daemon_cpu
            sample()
            meter.cpu_ns = 0
            cpu0 = time.process_time_ns()
            daemon.run_for(SLICE_MS)
            cpu += time.process_time_ns() - cpu0
            daemon_cpu += meter.cpu_ns

        while loop.now() < start + spec.type_ms:
            run_slice()
        deadline = loop.now() + DRAIN_MS
        while loop.now() < deadline and any(
                t.pending for t in self.typists.values()):
            run_slice()
        for _ in range(SETTLE_SLICES):   # last frames and acks
            run_slice()
        return {"cpu_s": cpu / 1e9, "daemon_cpu_s": daemon_cpu / 1e9,
                "speed_scale": speed.scale,
                "rejected": (self.arrived - arrived0
                             - (self._accepted() - accepted0)),
                "counted": self._counted() - counted0,
                "sim_ms": loop.now() - start}

    def _host_output(self, core, data: bytes) -> None:
        self.host_bytes += len(data)
        core.host_write(data)

    def _accepted(self) -> int:
        return sum(r.endpoint.datagrams_received
                   for r in self.daemon.manager.records())

    def _flight_drops(self) -> tuple[int, int]:
        """Drop fates in the daemon's rings, and events lost to wrapping."""
        rings = [self.daemon.daemon_flight,
                 *self.daemon.server_flights.values()]
        return (sum(len(r.events("drop")) for r in rings),
                sum(r.dropped_events for r in rings))

    def _counted(self) -> int:
        """Datagrams the daemon's and crypto's counters say it rejected."""
        snap = self.daemon.reactor.registry
        total = 0
        for name in ("daemon.bad_packets", "daemon.no_route"):
            total += snap.counter(name).value
        for record in self.daemon.manager.records():
            endpoint = record.endpoint
            stats = endpoint.session.stats
            total += (stats.auth_failures + stats.replay_drops
                      + endpoint.framing_drops)
        return total

    # -- results ---------------------------------------------------------

    def check(self, drive: dict) -> list[str]:
        """Output checks; an empty list means the episode is correct."""
        errors = list(self.errors)
        daemon = self.daemon
        for cid in daemon.conn_ids:
            server_fb = daemon.record(cid).core.terminal.fb
            if daemon.client(cid).remote_terminal.fb != server_fb:
                errors.append(f"session {cid}: client screen != server screen")
        for i, t in self.typists.items():
            echoed = len(t.samples)
            if t.typed - t.silent != echoed + len(t.pending):
                errors.append(f"session {i}: typed != echoed + unechoed")
            want = sum(len(step.keys) for step in t.trace.steps[:t.typed])
            if t.matched != want:
                errors.append(f"session {i}: server app got {t.matched} "
                              f"bytes, client typed {want}")
        if self.idle_input:
            errors.append(f"idle sessions' apps got {self.idle_input} bytes")
        if self.spec.attack:
            # Every injected datagram must be rejected, and the daemon must
            # have recorded each one's fate: in a counter, or (for fates
            # no counter covers) as a drop in its flight recorders.
            drops, lost = self._flight_drops()
            if drive["rejected"] != self.attack_sent:
                errors.append(f"{self.attack_sent} datagrams injected, "
                              f"{drive['rejected']} rejected")
            if lost or drops != self.attack_sent:
                errors.append(f"{self.attack_sent} datagrams injected, "
                              f"{drops} drop fates recorded ({lost} lost)")
            if drive["counted"] > drive["rejected"]:
                errors.append("rejection counters exceed rejections")
            if self.to_attacker:
                errors.append(f"{self.to_attacker} datagrams sent to the "
                              "attacker")
        elif drive["rejected"]:
            errors.append(f"{drive['rejected']} legitimate datagrams "
                          "rejected")
        return errors

    def measurements(self, drive: dict) -> dict:
        samples: list[float] = []
        typed = silent = instant = unechoed = 0
        for t in self.typists.values():
            samples.extend(t.samples)
            typed += t.typed
            silent += t.silent
            instant += t.instant
            unechoed += len(t.pending)
        mispredicted = sum(t.client.predictor.stats.mispredicted
                           for t in self.typists.values())
        echoed = len(samples)
        return {
            "typed": typed, "silent": silent, "echoed": echoed,
            "unechoed": unechoed, "instant": instant,
            "mispredicted": mispredicted,
            "echo_p50_ms": percentile(samples, 50, unechoed),
            "echo_p99_ms": percentile(samples, 99, unechoed),
            "echo_samples": echoed + unechoed,
            "echo_p99_beyond": beyond(samples, 99, unechoed),
            "host_bytes": self.host_bytes,
            "instant_frac": instant / max(1, typed),
            "mispredict_frac": mispredicted / max(1, typed),
            "wire_kb": self.wire_bytes / 1000.0,
            "wire_sha256": wire_digest(self.wire),
            "datagrams": len(self.wire),
            "attack_sent": self.attack_sent,
            "rejected": drive["rejected"],
            "counted_rejects": drive["counted"],
            "render_bytes": self.render_bytes,
            "cpu_s": drive["cpu_s"],
            "daemon_cpu_s": drive["daemon_cpu_s"],
            "speed_scale": drive["speed_scale"],
            "sim_ms": drive["sim_ms"],
        }
