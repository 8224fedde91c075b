"""Pulled counters: the registry reads session-owned counts when read.

Fleet counters (``crypto.*``, ``reactor.datagrams_in/out``,
``network.framing_drops``) sum the live endpoints' own counts plus a
retired total; per-session ``sender.*`` and ``prediction.*`` counters
read their objects directly. These tests pin the three properties that
buys: a read is exact with no tick in between, a closed session's
counts stay in the fleet totals and its instruments keep their final
values, and the registry no longer keeps a closed session alive.
"""

import gc
import weakref

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.packet import encode_conn_id
from repro.obs.registry import MetricsRegistry, SourcedCounter
from repro.runtime.reactor import ReactorMetrics
from repro.session.inprocess import InProcessDaemon
from repro.simnet.link import LinkConfig

#: Fleet counter name -> reader of the endpoint count it sums.
FLEET = {
    ReactorMetrics.COUNTERS[attr]: read
    for attr, read in ReactorMetrics.PULLED.items()
}


def make_daemon(sessions: int = 2, seed: int = 3) -> InProcessDaemon:
    return InProcessDaemon(
        LinkConfig(delay_ms=10.0),
        LinkConfig(delay_ms=10.0),
        sessions=sessions,
        width=20,
        height=4,
        seed=seed,
    )


def forge(daemon: InProcessDaemon, conn_id: int) -> None:
    """One v2 datagram for ``conn_id`` whose tag cannot verify."""
    daemon.mux.dispatch(encode_conn_id(conn_id) + bytes(40), "attacker")


class TestSourcedCounter:
    def test_reads_its_source_and_cannot_be_pushed(self):
        source = [3]
        registry = MetricsRegistry()
        counter = registry.counter("x", fn=lambda: source[0])
        assert isinstance(counter, SourcedCounter)
        assert registry.counter("x") is counter
        source[0] = 7
        assert registry.snapshot()["counters"]["x"] == 7
        try:
            counter.inc()
        except AttributeError:
            pass
        else:  # pragma: no cover - a pushed increment would be lost
            raise AssertionError("a sourced counter accepted inc()")

    def test_freeze_pins_and_a_new_source_counts_on(self):
        source = [5]
        registry = MetricsRegistry()
        counter = registry.counter("x", fn=lambda: source[0])
        counter.freeze()
        source[0] = 99
        assert counter.value == 5 and counter.fn is None
        # Respawning a session under the same name must not make the
        # counter fall back to the new source's zero.
        fresh = [0]
        assert registry.counter("x", fn=lambda: fresh[0]) is counter
        fresh[0] = 2
        assert counter.value == 7

    def test_gauge_freeze(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", fn=lambda: 1.5)
        gauge.freeze()
        assert gauge.fn is None and gauge.value == 1.5


class TestReactorMetrics:
    class Endpoint:
        def __init__(self):
            self.datagrams_received = 0
            self.datagrams_sent = 0
            self.framing_drops = 0
            self.session = type("S", (), {})()
            self.session.stats = type("T", (), {})()
            for name in ReactorMetrics.PULLED:
                setattr(self.session.stats, name, 0)

    def test_an_endpoint_attached_twice_counts_once(self):
        metrics = ReactorMetrics()
        endpoint = self.Endpoint()
        metrics.attach(endpoint)
        metrics.attach(endpoint)
        endpoint.datagrams_sent = 4
        assert metrics.datagrams_out == 4
        metrics.retire(endpoint)
        endpoint.datagrams_sent = 50  # retired: no longer read
        assert metrics.datagrams_out == 4
        metrics.retire(endpoint)  # already retired: a no-op
        assert metrics.datagrams_out == 4

    def test_pulled_views_are_read_only(self):
        metrics = ReactorMetrics()
        metrics.ticks += 2
        assert metrics.registry.counter("reactor.ticks").value == 2
        try:
            metrics.auth_failures = 1
        except AttributeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("a pulled view accepted a write")


class TestExactWhenRead:
    def test_forged_and_misframed_counts_before_any_tick(self):
        daemon = make_daemon()
        daemon.connect(warmup_ms=500.0)
        daemon.run_for(4000.0)
        cid = daemon.conn_ids[0]
        record = daemon.record(cid)
        assert record.core.pump.parked
        registry = daemon.reactor.registry
        ticks = registry.counter("reactor.ticks").value
        before = registry.snapshot()["counters"]
        for _ in range(100):
            forge(daemon, cid)
        for _ in range(30):
            # Another session's id: the endpoint's framing check drops it.
            record.endpoint.deliver(
                encode_conn_id(cid + 100) + bytes(40), "attacker",
                daemon.loop.now(),
            )
        counters = registry.snapshot()["counters"]
        assert registry.counter("reactor.ticks").value == ticks
        assert record.session.stats.auth_failures == 100
        assert record.endpoint.framing_drops == 30
        assert counters["crypto.auth_failures"] == (
            before["crypto.auth_failures"] + 100
        )
        assert counters["network.framing_drops"] == (
            before["network.framing_drops"] + 30
        )


class TestClosedSessions:
    def test_registry_releases_a_closed_session(self):
        daemon = make_daemon(sessions=3)
        daemon.connect(warmup_ms=500.0)
        for cid in daemon.conn_ids:
            daemon.client(cid).type_bytes(b"hi\r")
        daemon.run_for(300.0)
        forge(daemon, 2)
        registry = daemon.reactor.registry
        sender = weakref.ref(daemon.record(2).core.transport.sender)
        prefix = "server.s2."
        before = registry.snapshot()
        mine = {
            section: {
                name: value
                for name, value in before[section].items()
                if name.startswith(prefix)
                and not name.endswith("last_heard_age_ms")
            }
            for section in ("counters", "gauges")
        }
        assert mine["counters"][prefix + "sender.instructions"] > 0
        assert mine["gauges"][prefix + "network.srtt_ms"] > 0

        assert daemon.manager.close(2)
        gc.collect()
        assert sender() is None, "the closed session is still reachable"

        daemon.run_for(2000.0)  # the fleet keeps running
        after = registry.snapshot()
        for section, values in mine.items():
            for name, value in values.items():
                assert after[section][name] == value, name
        # The manager's staleness gauge reports a closed session as -1.
        assert after["gauges"][prefix + "last_heard_age_ms"] == -1.0
        for name in FLEET:
            assert after["counters"][name] >= before["counters"][name]
        assert after["counters"]["crypto.auth_failures"] >= 1


class FleetModel:
    """A daemon plus every endpoint it ever ran, live or closed."""

    def __init__(self, seed: int) -> None:
        self.daemon = make_daemon(sessions=1, seed=seed)
        self.endpoints = []
        self.live: list[int] = []
        for cid in self.daemon.conn_ids:
            self._track(cid)
        self.daemon.connect(warmup_ms=200.0)
        self.last = self.daemon.metrics_snapshot()["counters"]

    def _track(self, cid: int) -> None:
        self.endpoints += (
            self.daemon.record(cid).endpoint,
            self.daemon.client(cid).transport.endpoint,
        )
        self.live.append(cid)

    def step(self, op: str, pick: int, ms: float) -> None:
        daemon = self.daemon
        if op == "spawn" or not self.live:
            record, _ = daemon.add_session()
            self._track(record.conn_id)
            daemon.client(record.conn_id).kick()
            return
        cid = self.live[pick % len(self.live)]
        if op == "type":
            daemon.client(cid).type_bytes(b"ab\r")
        elif op == "forge":
            forge(daemon, cid)
            daemon.record(cid).endpoint.deliver(b"\xff", "attacker", 0.0)
        elif op == "close":
            daemon.manager.close(cid)
            self.live.remove(cid)
        else:
            daemon.run_for(ms)

    def check(self) -> None:
        counters = self.daemon.metrics_snapshot()["counters"]
        for name, read in FLEET.items():
            assert counters[name] == sum(map(read, self.endpoints)), name
        for name, value in self.last.items():
            assert counters[name] >= value, f"{name} fell"
        self.last = counters


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**16),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["spawn", "type", "forge", "close", "run"]),
            st.integers(0, 7),
            st.floats(1.0, 400.0),
        ),
        min_size=1,
        max_size=14,
    ),
)
def test_fleet_counters_equal_live_plus_closed_sources(seed, steps):
    model = FleetModel(seed)
    model.check()
    for op, pick, ms in steps:
        model.step(op, pick, ms)
        model.check()
