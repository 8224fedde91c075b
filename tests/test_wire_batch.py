"""The batched wire path: per-flush seal/unseal, tick-boundary
flush hooks, syscall batching, and the contracts that keep batching
byte-identical to the inline path (ordering, partial-failure fates,
zero-copy staging)."""

import socket
import time

import pytest

from repro.clock import SimulatedClock
from repro.crypto.keys import DIRECTION_TO_SERVER, Base64Key, Nonce
from repro.crypto.session import (
    Message,
    NullSession,
    Session,
    seal_many,
    unseal_many,
)
from repro.daemon.mux import SessionMux
from repro.errors import AuthenticationError, CryptoError, ReplayError
from repro.network import sysbatch
from repro.network.batch import RxBatcher, SyscallCounter, WireBatcher
from repro.network.interface import DatagramEndpoint
from repro.network.packet import TIMESTAMP_NONE, Packet, encode_conn_id
from repro.obs.flight import FlightRecorder
from repro.runtime.reactor import RealReactor
from repro.simnet.eventloop import EventLoop
from tests.test_crypto_backend import PureBackend


def _keyed_pair():
    """A (server, client) session pair sharing one fresh key."""
    key = Base64Key.new()
    return Session(key), Session(key)


def _plaintext(payload=b"p", seq=0):
    packet = Packet(
        Nonce(DIRECTION_TO_SERVER, seq), 100, TIMESTAMP_NONE, payload
    )
    return packet.nonce, packet.to_plaintext()


class RecordingEndpoint(DatagramEndpoint):
    def __init__(self, session=None, is_server=True):
        super().__init__(
            session if session is not None else NullSession(),
            is_server=is_server,
        )
        self.wire = []
        self.set_remote_addr("peer")

    def _transmit(self, raw, now):
        self.wire.append(raw)

    def transmit_to(self, raw, addr, now):
        self.wire.append(raw)


# ----------------------------------------------------------------------
# Per-flush seal/unseal must be indistinguishable from scalar calls:
# same bytes, same counters, failures as values — on either cipher.
# ----------------------------------------------------------------------


class TestSealManyParity:
    SIZES = [0, 1, 15, 16, 17, 100, 500]

    def test_byte_identical_to_scalar(self):
        keys = [Base64Key.new() for _ in range(3)]
        batch_sessions = [Session(k) for k in keys]
        scalar_sessions = [Session(k) for k in keys]
        pairs = []
        for seq, size in enumerate(self.SIZES):
            for si in range(3):
                message = Message(
                    nonce=Nonce(DIRECTION_TO_SERVER, seq),
                    text=bytes(range(256))[:size] * 1 + b"x" * max(0, size - 256),
                )
                pairs.append((si, message))
        batched = seal_many(
            [(batch_sessions[si], m) for si, m in pairs]
        )
        scalar = [scalar_sessions[si].encrypt(m) for si, m in pairs]
        assert batched == scalar

    def test_null_sessions_ride_along(self):
        server, _ = _keyed_pair()
        null = NullSession()
        msgs = [
            Message(nonce=Nonce(DIRECTION_TO_SERVER, i), text=b"m%d" % i)
            for i in range(4)
        ]
        sealed = seal_many(
            [(null, msgs[0]), (server, msgs[1]), (server, msgs[2]),
             (null, msgs[3])]
        )
        assert sealed[0] == NullSession().encrypt(msgs[0])
        assert sealed[3] == NullSession().encrypt(msgs[3])
        ref = Session(server.key)
        assert sealed[1] == ref.encrypt(msgs[1])
        assert sealed[2] == ref.encrypt(msgs[2])

    def test_counters_match_scalar(self):
        key = Base64Key.new()
        batch_session, scalar_session = Session(key), Session(key)
        msgs = [
            Message(nonce=Nonce(DIRECTION_TO_SERVER, i), text=b"y" * (i + 3))
            for i in range(5)
        ]
        seal_many([(batch_session, m) for m in msgs])
        for m in msgs:
            scalar_session.encrypt(m)
        bs, ss = batch_session.stats, scalar_session.stats
        assert bs.datagrams_sealed == ss.datagrams_sealed == 5
        assert bs.bytes_sealed == ss.bytes_sealed


class TestUnsealManyParity:
    def test_roundtrip_across_sizes_and_keys(self):
        (s1, c1), (s2, c2) = _keyed_pair(), _keyed_pair()
        datagrams = []
        for seq, size in enumerate([0, 1, 33, 256, 500]):
            text = b"z" * size
            datagrams.append((s1, c1.encrypt(
                Message(nonce=Nonce(DIRECTION_TO_SERVER, seq), text=text))))
            datagrams.append((s2, c2.encrypt(
                Message(nonce=Nonce(DIRECTION_TO_SERVER, seq), text=text))))
        results = unseal_many(datagrams)
        for (session, _), message, (seq, size) in zip(
            datagrams, results,
            [(s, z) for s in range(5) for z in ([0, 1, 33, 256, 500][s],) * 2],
        ):
            assert isinstance(message, Message)
            assert message.nonce.seq == seq
            assert len(message.text) == size

    def test_memoryview_input(self):
        server, client = _keyed_pair()
        raws = [
            client.encrypt(
                Message(nonce=Nonce(DIRECTION_TO_SERVER, i), text=b"view"))
            for i in range(3)
        ]
        views = [memoryview(bytearray(raw)) for raw in raws]
        results = unseal_many([(server, v) for v in views])
        assert all(isinstance(m, Message) for m in results)
        assert all(m.text == b"view" for m in results)
        # Retained text must be materialized, not a window into the
        # (reusable) receive buffer.
        for view in views:
            view.obj[:] = bytes(len(view))
        assert all(m.text == b"view" for m in results)

    def test_failures_returned_as_values(self):
        server, client = _keyed_pair()
        good = client.encrypt(
            Message(nonce=Nonce(DIRECTION_TO_SERVER, 0), text=b"ok"))
        tampered = bytearray(client.encrypt(
            Message(nonce=Nonce(DIRECTION_TO_SERVER, 1), text=b"ok")))
        tampered[-1] ^= 0x01
        replayed = client.encrypt(
            Message(nonce=Nonce(DIRECTION_TO_SERVER, 2), text=b"ok"))
        results = unseal_many([
            (server, good),
            (server, bytes(tampered)),
            (server, replayed),
            (server, replayed),
        ])
        assert isinstance(results[0], Message)
        assert isinstance(results[1], AuthenticationError)
        assert isinstance(results[2], Message)
        assert isinstance(results[3], ReplayError)
        assert server.stats.auth_failures == 1
        assert server.stats.replay_drops == 1

    def test_counters_match_scalar(self):
        key = Base64Key.new()
        batch_server, scalar_server = Session(key), Session(key)
        client = Session(key)
        raws = [
            client.encrypt(
                Message(nonce=Nonce(DIRECTION_TO_SERVER, i), text=b"c" * i))
            for i in range(4)
        ]
        forged = bytearray(raws[0])
        forged[-1] ^= 0xFF
        stream = raws + [bytes(forged), raws[2]]  # + auth fail + replay
        unseal_many([(batch_server, raw) for raw in stream])
        for raw in stream:
            try:
                scalar_server.decrypt(raw)
            except CryptoError:
                pass
        bs, ss = batch_server.stats, scalar_server.stats
        assert bs.datagrams_unsealed == ss.datagrams_unsealed
        assert bs.bytes_unsealed == ss.bytes_unsealed
        assert bs.auth_failures == ss.auth_failures == 1
        assert bs.replay_drops == ss.replay_drops == 1


class TestSealManyParityPureBackend(PureBackend, TestSealManyParity):
    pass


class TestUnsealManyParityPureBackend(PureBackend, TestUnsealManyParity):
    pass


# ----------------------------------------------------------------------
# S2 — the framed receive path hands zero-copy views through to the
# batched unseal; nothing delivered may alias the receive slot.
# ----------------------------------------------------------------------


class TestRxStageZeroCopy:
    def test_staged_body_shares_the_receive_buffer(self):
        rx = RxBatcher()
        endpoints, payloads, slots = [], [], []
        for i in range(3):
            server, client = _keyed_pair()
            endpoint = RecordingEndpoint(session=server)
            endpoint.set_conn_id(i + 1)
            endpoint.rx_stage = rx.stage
            nonce, text = _plaintext(payload=b"pay-%d" % i)
            raw = encode_conn_id(i + 1) + client.encrypt(
                Message(nonce=nonce, text=text)
            )
            slot = bytearray(2048)
            slot[: len(raw)] = raw
            view = memoryview(slot)[: len(raw)]
            endpoint._handle_datagram(view, "addr", now=0.0)
            endpoints.append(endpoint)
            payloads.append(b"pay-%d" % i)
            slots.append(slot)
        assert len(rx) == 3
        for (_, body, framed, _, _), slot in zip(rx._staged, slots):
            # No copy between the socket slot and the unseal: the staged
            # body is a window into the very buffer the datagram landed in.
            assert isinstance(body, memoryview)
            assert body.obj is slot
            assert framed is True
        assert rx.flush() == 3
        delivered = [ep.pop_received() for ep in endpoints]
        assert delivered == [[p] for p in payloads]
        # Receive slots are reused; delivered payloads must survive that.
        for slot in slots:
            slot[:] = bytes(len(slot))
        assert delivered == [[p] for p in payloads]
        assert all(isinstance(d[0], bytes) for d in delivered)

    def test_flush_notifies_once_per_endpoint(self):
        rx = RxBatcher()
        server, client = _keyed_pair()
        endpoint = RecordingEndpoint(session=server)
        endpoint.rx_stage = rx.stage
        kicks = []
        endpoint.on_datagram = lambda now: kicks.append(("one", now))
        endpoint.on_datagram_count = lambda now, n: kicks.append((n, now))
        for seq in range(3):
            nonce, text = _plaintext(seq=seq)
            endpoint._handle_datagram(
                client.encrypt(Message(nonce=nonce, text=text)), "a", now=7.0
            )
        rx.flush()
        assert kicks == [(3, 7.0)]
        assert len(endpoint.pop_received()) == 3


# ----------------------------------------------------------------------
# S3 — a failing send must not drop or reorder the rest of the batch,
# and every datagram's fate must land in the flight recorder.
# ----------------------------------------------------------------------


class TestWireBatcherOrdering:
    def _endpoint(self, name):
        server, _ = _keyed_pair()
        endpoint = RecordingEndpoint(session=server)
        endpoint.flight = FlightRecorder(name, clock=lambda: 0.0)
        return endpoint

    def test_flush_preserves_enqueue_order(self):
        order = []

        def transmit_many(sends):
            order.extend(endpoint for _, _, _, endpoint, _ in sends)
            return []

        batcher = WireBatcher(transmit_many=transmit_many)
        a, b = self._endpoint("a"), self._endpoint("b")
        a.batcher = b.batcher = batcher
        a.send(b"a0", now=0.0)
        b.send(b"b0", now=0.0)
        a.send(b"a1", now=1.0)
        a.send(b"a2", now=1.0)
        b.send(b"b1", now=1.0)
        assert batcher.flush() == 5
        assert order == [a, b, a, a, b]
        seqs_a = [e["seq"] for e in a.flight.events("send")]
        seqs_b = [e["seq"] for e in b.flight.events("send")]
        assert seqs_a == [0, 1, 2] and seqs_b == [0, 1]
        assert all(e["bsz"] == 5 for e in a.flight.events("send"))

    def test_partial_failure_fate_partition(self):
        delivered = []

        def transmit_many(sends):
            for i, (_, raw, _, endpoint, _) in enumerate(sends):
                if i == 1:
                    continue  # this slot's sendmmsg entry "failed"
                delivered.append((endpoint, raw))
            return [1]

        batcher = WireBatcher(transmit_many=transmit_many)
        endpoints = [self._endpoint(f"s{i}") for i in range(4)]
        for endpoint in endpoints:
            endpoint.batcher = batcher
            endpoint.send(b"payload", now=0.0)
        assert batcher.flush() == 4
        # The failed entry is skipped, never allowed to take the batch
        # down with it or reorder the survivors.
        assert [ep for ep, _ in delivered] == [
            endpoints[0], endpoints[2], endpoints[3]
        ]
        # Fate partition: every datagram is exactly one of delivered or
        # send_err — the flight recorder must agree with the wire.
        for i, endpoint in enumerate(endpoints):
            sends = endpoint.flight.events("send")
            drops = endpoint.flight.events("drop")
            assert len(sends) == 1
            if i == 1:
                assert [d["reason"] for d in drops] == ["send_err"]
                assert drops[0]["seq"] == sends[0]["seq"]
            else:
                assert drops == []

    def test_counters_move_at_enqueue(self):
        batcher = WireBatcher(transmit_many=lambda sends: [])
        endpoint = self._endpoint("c")
        endpoint.batcher = batcher
        endpoint.send(b"x", now=0.0)
        assert endpoint.datagrams_sent == 1
        assert endpoint.bytes_sent > 0
        assert len(batcher) == 1


# ----------------------------------------------------------------------
# The syscall layer: sendmmsg/recvmmsg bursts, and the portable
# fallback that must behave identically (minus the batching).
# ----------------------------------------------------------------------

mmsg_only = pytest.mark.skipif(
    not sysbatch.available(), reason="sendmmsg/recvmmsg unavailable"
)


def _udp_pair():
    rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    rx.bind(("127.0.0.1", 0))
    rx.setblocking(False)
    tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    tx.bind(("127.0.0.1", 0))
    return tx, rx


def _drain(receiver, expected, tries=50):
    got = []
    for _ in range(tries):
        burst = receiver.recv_many()
        # mmsg views die at the next recv_many call: materialize now.
        got.extend((bytes(body), addr) for body, addr in burst)
        if len(got) >= expected:
            break
        time.sleep(0.01)
    return got


class TestSysBatch:
    @mmsg_only
    def test_mmsg_roundtrip_mixed_framing(self):
        tx, rx = _udp_pair()
        try:
            counter = SyscallCounter()
            sender = sysbatch.BatchSender(tx, counter=counter)
            receiver = sysbatch.BatchReceiver(rx, counter=counter)
            dest = rx.getsockname()
            sends = []
            expect = []
            for i in range(20):
                header = encode_conn_id(i + 1) if i % 2 else None
                body = b"body-%02d" % i
                sends.append((header, body, dest, None, 0.0))
                expect.append((header or b"") + body)
            assert sender.send_many(sends) == []
            assert counter.calls.get("sendmmsg") == 1
            got = _drain(receiver, 20)
            assert [raw for raw, _ in got] == expect
            src = tx.getsockname()
            assert all(addr == src for _, addr in got)
            assert counter.calls.get("recvmmsg", 0) >= 1
        finally:
            tx.close()
            rx.close()

    @mmsg_only
    def test_failed_entry_skipped_without_reorder(self):
        tx, rx = _udp_pair()
        try:
            sender = sysbatch.BatchSender(tx)
            receiver = sysbatch.BatchReceiver(rx)
            dest = rx.getsockname()
            sends = [
                (None, b"first", dest, None, 0.0),
                (None, b"\x00" * 70000, dest, None, 0.0),  # EMSGSIZE
                (None, b"third", dest, None, 0.0),
            ]
            assert sender.send_many(sends) == [1]
            got = _drain(receiver, 2)
            assert [raw for raw, _ in got] == [b"first", b"third"]
        finally:
            tx.close()
            rx.close()

    def test_portable_fallback_roundtrip(self, monkeypatch):
        monkeypatch.setenv(sysbatch.PORTABLE_ENV, "1")
        tx, rx = _udp_pair()
        try:
            counter = SyscallCounter()
            sender = sysbatch.BatchSender(tx, counter=counter)
            receiver = sysbatch.BatchReceiver(rx, counter=counter)
            dest = rx.getsockname()
            header = encode_conn_id(3)
            sends = [
                (None, b"plain", dest, None, 0.0),
                (header, b"framed", dest, None, 0.0),
            ]
            assert sender.send_many(sends) == []
            got = _drain(receiver, 2)
            assert [raw for raw, _ in got] == [b"plain", header + b"framed"]
            assert "sendmmsg" not in counter.calls
            assert "recvmmsg" not in counter.calls
            assert counter.calls.get("sendto") == 1
            assert counter.calls.get("sendmsg") == 1
        finally:
            tx.close()
            rx.close()


# ----------------------------------------------------------------------
# Flush hooks: batched work drains before simulated time moves past the
# tick that queued it — that is the whole byte-identity argument. Both
# reactors share one flush loop; the real one is driven on a simulated
# clock through its own run_once iterations.
# ----------------------------------------------------------------------


class RealLoop:
    """EventLoop-shaped driver for a RealReactor on a simulated clock."""

    def __init__(self):
        self.clock = SimulatedClock()
        self.reactor = RealReactor(clock=self.clock)

    def now(self):
        return self.clock.now()

    def add_flush_hook(self, hook):
        self.reactor.add_flush_hook(hook)

    def schedule_at(self, when_ms, callback):
        self.reactor.call_at(when_ms, callback)

    def run_until(self, when_ms):
        # One run_once per distinct deadline (select never sleeps: the
        # wait is capped at 0), then a last iteration at ``when_ms``.
        timers = self.reactor._timers
        while True:
            deadline = timers.peek()
            if deadline is None or deadline > when_ms:
                break
            self.clock.advance_to(deadline)
            self.reactor.run_once(0.0)
        self.clock.advance_to(when_ms)
        self.reactor.run_once(0.0)


class TestEventLoopFlushHooks:
    make_loop = EventLoop

    def test_hooks_run_before_clock_advances(self):
        loop = self.make_loop()
        pending = []
        flushed_at = []

        def flush():
            if not pending:
                return 0
            n = len(pending)
            flushed_at.extend((item, loop.now()) for item in pending)
            pending.clear()
            return n

        loop.add_flush_hook(flush)
        loop.schedule_at(10.0, lambda: pending.append("a"))
        loop.schedule_at(10.0, lambda: pending.append("b"))
        loop.schedule_at(25.0, lambda: pending.append("c"))
        loop.run_until(100.0)
        # Every item drained at the simulated instant it was queued, not
        # at the end of the run.
        assert flushed_at == [("a", 10.0), ("b", 10.0), ("c", 25.0)]
        assert loop.now() == 100.0

    def test_hooks_run_in_registration_order(self):
        loop = self.make_loop()
        calls = []
        work = [2]

        def rx():
            calls.append("rx")
            return 0

        def tx():
            calls.append("tx")
            if work[0]:
                work[0] -= 1
                return 1
            return 0

        loop.add_flush_hook(rx)
        loop.add_flush_hook(tx)
        loop.schedule_at(1.0, lambda: None)
        loop.run_until(2.0)
        # rx before tx each round; rounds repeat while any hook reports
        # work, so replies join the same tick's outgoing flush.
        assert calls[:6] == ["rx", "tx", "rx", "tx", "rx", "tx"]

    def test_flush_can_schedule_into_the_same_tick(self):
        loop = self.make_loop()
        pending = []
        times = []

        def flush():
            n = len(pending)
            del pending[:]
            for _ in range(n):
                loop.schedule_at(loop.now(), lambda: times.append(loop.now()))
            return n

        loop.add_flush_hook(flush)
        loop.schedule_at(5.0, lambda: pending.append("datagram"))
        loop.run_until(50.0)
        # A delivery queued by the flush at t=5 still happens at t=5.
        assert times == [5.0]

    def test_flush_rounds_are_bounded(self):
        loop = self.make_loop()
        armed = []
        rounds = []
        seen = []

        def busy():
            if not armed:
                return 0
            rounds.append(loop.now())
            return 1  # never quiesces while armed

        loop.add_flush_hook(busy)
        loop.schedule_at(1.0, lambda: armed.append(True))
        loop.schedule_at(2.0, lambda: (armed.clear(), seen.extend(rounds)))
        loop.run_until(3.0)
        # One tick boundary between the two timers: a single flush pass,
        # cut off after eight rounds of work.
        assert seen == [1.0] * 8


class TestRealReactorFlushHooks(TestEventLoopFlushHooks):
    """The same contract on the select() reactor's run_once."""

    make_loop = RealLoop


# ----------------------------------------------------------------------
# Legacy v1 routing needs an immediate unseal verdict: deliver_now must
# bypass (and then restore) the staged receive path.
# ----------------------------------------------------------------------


class TestDeliverNowLegacyRouting:
    def _legacy_datagram(self, client, seq, payload=b"v1"):
        packet = Packet(
            Nonce(DIRECTION_TO_SERVER, seq), 100, TIMESTAMP_NONE, payload
        )
        return client.encrypt(
            Message(nonce=packet.nonce, text=packet.to_plaintext())
        )

    def test_known_addr_path_is_synchronous(self):
        mux = SessionMux(clock=lambda: 0.0)
        (s1, c1), (s2, _) = _keyed_pair(), _keyed_pair()
        e1 = mux.open_endpoint(s1, conn_id=1)
        mux.open_endpoint(s2, conn_id=2)
        rx = RxBatcher()
        stage = rx.stage
        for conn_id in (1, 2):
            mux.endpoint(conn_id).rx_stage = stage
        # Unknown source: the probe path claims it; delivery may stage.
        assert mux.dispatch(self._legacy_datagram(c1, 0), "addr-a") is e1
        rx.flush()
        assert e1.pop_received() == [b"v1"]
        # Known source: routing reads the unseal verdict immediately, so
        # delivery must run inline — nothing staged, payload available now.
        assert mux.dispatch(self._legacy_datagram(c1, 1), "addr-a") is e1
        assert len(rx) == 0
        assert e1.pop_received() == [b"v1"]
        # The staged path is restored for regular v2 traffic afterwards.
        assert e1.rx_stage is stage
