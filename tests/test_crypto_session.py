"""Keys, nonces, and the session sealing API."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import (
    DIRECTION_TO_CLIENT,
    DIRECTION_TO_SERVER,
    Base64Key,
    Nonce,
)
from repro.crypto.session import (
    MAX_PAYLOAD_LEN,
    Message,
    NullSession,
    Session,
    unseal_many,
)
from repro.errors import AuthenticationError, CryptoError
from tests.test_crypto_backend import PureBackend


class TestBase64Key:
    def test_printable_is_22_chars(self):
        key = Base64Key.new()
        assert len(key.printable()) == 22

    def test_printable_roundtrip(self):
        key = Base64Key.new()
        assert Base64Key.from_printable(key.printable()) == key

    def test_new_keys_are_distinct(self):
        assert Base64Key.new() != Base64Key.new()

    def test_wrong_length_raises(self):
        with pytest.raises(CryptoError):
            Base64Key(b"short")
        with pytest.raises(CryptoError):
            Base64Key.from_printable("tooshort")

    def test_invalid_base64_raises(self):
        with pytest.raises(CryptoError):
            Base64Key.from_printable("!" * 22)

    def test_repr_hides_secret(self):
        key = Base64Key.new()
        assert key.printable() not in repr(key)


class TestNonce:
    def test_wire_roundtrip(self):
        nonce = Nonce(direction=DIRECTION_TO_CLIENT, seq=123456)
        again = Nonce.from_wire(nonce.wire())
        assert again == nonce

    def test_direction_bit_is_top_bit(self):
        assert Nonce(DIRECTION_TO_CLIENT, 0).wire()[0] & 0x80
        assert not Nonce(DIRECTION_TO_SERVER, 0).wire()[0] & 0x80

    def test_ocb_form_is_12_bytes_zero_padded(self):
        nonce = Nonce(DIRECTION_TO_SERVER, 7)
        ocb = nonce.ocb()
        assert len(ocb) == 12
        assert ocb[:4] == bytes(4)

    def test_seq_out_of_range(self):
        with pytest.raises(CryptoError):
            Nonce(0, 1 << 63)
        with pytest.raises(CryptoError):
            Nonce(0, -1)

    def test_bad_direction(self):
        with pytest.raises(CryptoError):
            Nonce(2, 0)

    @given(st.integers(0, (1 << 63) - 1), st.integers(0, 1))
    def test_wire_roundtrip_property(self, seq, direction):
        nonce = Nonce(direction, seq)
        assert Nonce.from_wire(nonce.wire()) == nonce


class TestSession:
    def test_roundtrip(self):
        session = Session(Base64Key.new())
        message = Message(Nonce(DIRECTION_TO_SERVER, 9), b"keystroke")
        assert session.decrypt(session.encrypt(message)) == message

    def test_nonce_travels_in_clear(self):
        session = Session(Base64Key.new())
        message = Message(Nonce(DIRECTION_TO_CLIENT, 77), b"data")
        wire = session.encrypt(message)
        assert Nonce.from_wire(wire[:8]) == message.nonce

    def test_tampering_detected(self):
        session = Session(Base64Key.new())
        wire = bytearray(session.encrypt(Message(Nonce(0, 1), b"hello")))
        wire[-1] ^= 0xFF
        with pytest.raises(AuthenticationError):
            session.decrypt(bytes(wire))

    def test_nonce_tampering_detected(self):
        """Changing the cleartext nonce must break authentication."""
        session = Session(Base64Key.new())
        wire = bytearray(session.encrypt(Message(Nonce(0, 1), b"hello")))
        wire[7] ^= 0x01  # seq 1 -> 0
        with pytest.raises(AuthenticationError):
            session.decrypt(bytes(wire))

    def test_cross_key_rejected(self):
        a = Session(Base64Key.new())
        b = Session(Base64Key.new())
        wire = a.encrypt(Message(Nonce(0, 1), b"hello"))
        with pytest.raises(AuthenticationError):
            b.decrypt(wire)

    def test_short_datagram_rejected(self):
        session = Session(Base64Key.new())
        with pytest.raises(CryptoError):
            session.decrypt(b"tiny")

    def test_oversized_payload_rejected(self):
        session = Session(Base64Key.new())
        big = b"x" * (MAX_PAYLOAD_LEN + 1)
        with pytest.raises(CryptoError):
            session.encrypt(Message(Nonce(0, 1), big))

    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=600), st.integers(0, 2**40))
    def test_roundtrip_property(self, payload, seq):
        session = Session(Base64Key(bytes(range(16))))
        message = Message(Nonce(DIRECTION_TO_SERVER, seq), payload)
        assert session.decrypt(session.encrypt(message)) == message


class TestSessionPureBackend(PureBackend, TestSession):
    """The same session contract on the from-scratch cipher."""

    # Hypothesis rejects one @given test run from two classes; the
    # native-vs-pure differential test covers random payloads instead.
    test_roundtrip_property = None


class TestNonceEncodingCache:
    def test_wire_is_cached(self):
        nonce = Nonce(DIRECTION_TO_SERVER, 42)
        assert nonce.wire() is nonce.wire()

    def test_ocb_is_cached(self):
        nonce = Nonce(DIRECTION_TO_CLIENT, 42)
        assert nonce.ocb() is nonce.ocb()

    def test_from_wire_preserves_bytes(self):
        wire = Nonce(DIRECTION_TO_CLIENT, 9001).wire()
        assert Nonce.from_wire(wire).wire() == wire

    def test_cache_does_not_leak_into_equality(self):
        a = Nonce(DIRECTION_TO_SERVER, 3)
        b = Nonce(DIRECTION_TO_SERVER, 3)
        a.wire(), a.ocb()  # populate a's cache only
        assert a == b
        assert hash(a) == hash(b)


class TestCryptoStats:
    def test_seal_counters(self):
        session = Session(Base64Key.new())
        session.encrypt(Message(Nonce(0, 1), b"abcde"))
        session.encrypt(Message(Nonce(0, 2), b""))
        assert session.stats.datagrams_sealed == 2
        assert session.stats.bytes_sealed == 5

    def test_unseal_counters(self):
        session = Session(Base64Key.new())
        wire = session.encrypt(Message(Nonce(1, 7), b"0123456789"))
        session.decrypt(wire)
        assert session.stats.datagrams_unsealed == 1
        assert session.stats.bytes_unsealed == 10

    def test_auth_failure_counted_and_raised(self):
        session = Session(Base64Key.new())
        wire = bytearray(session.encrypt(Message(Nonce(0, 1), b"hello")))
        wire[-1] ^= 0xFF
        with pytest.raises(AuthenticationError):
            session.decrypt(bytes(wire))
        assert session.stats.auth_failures == 1
        assert session.stats.datagrams_unsealed == 0

    def test_short_datagram_counts_as_auth_failure(self):
        """Too short to carry a tag: rejected *and* counted, scalar and
        batched (unseal_many hands short bodies to ``decrypt``)."""
        session = Session(Base64Key.new())
        with pytest.raises(CryptoError):
            session.decrypt(b"x" * 10)
        assert session.stats.auth_failures == 1

        key = Base64Key.new()
        server, client = Session(key), Session(key)
        good = [
            client.encrypt(Message(Nonce(DIRECTION_TO_SERVER, i), b"ok"))
            for i in range(8)
        ]
        results = unseal_many(
            [(server, raw) for raw in good]
            + [(server, b"x" * 10), (server, memoryview(b"tiny"))]
        )
        assert all(isinstance(m, Message) for m in results[:8])
        assert all(isinstance(e, CryptoError) for e in results[8:])
        assert server.stats.datagrams_unsealed == 8
        assert server.stats.auth_failures == 2

    def test_null_session_counts_too(self):
        session = NullSession()
        wire = session.encrypt(Message(Nonce(0, 1), b"abc"))
        session.decrypt(wire)
        snap = session.stats.snapshot()
        assert snap["datagrams_sealed"] == 1
        assert snap["bytes_unsealed"] == 3
        assert snap["auth_failures"] == 0

    def test_snapshot_names_exist_on_reactor_metrics(self):
        """The pump bridges these counters by name into ReactorMetrics."""
        from repro.runtime.reactor import ReactorMetrics

        metrics = ReactorMetrics()
        for name in Session(Base64Key.new()).stats.snapshot():
            assert hasattr(metrics, name)

    def test_counters_reach_reactor_metrics(self):
        """End to end: sealing traffic shows up in the shared metrics."""
        from repro.session.inprocess import InProcessSession
        from repro.simnet.link import LinkConfig

        session = InProcessSession(LinkConfig(), LinkConfig())
        session.connect()
        metrics = session.reactor.metrics
        assert metrics.datagrams_sealed > 0
        assert metrics.datagrams_unsealed > 0
        assert metrics.auth_failures == 0
        assert metrics.snapshot()["datagrams_sealed"] == metrics.datagrams_sealed


class TestCryptoStatsPureBackend(PureBackend, TestCryptoStats):
    """The same counters (incl. ``unseal_many``) on the from-scratch cipher."""


class TestNullSession:
    def test_roundtrip(self):
        session = NullSession()
        message = Message(Nonce(1, 5), b"plaintext")
        assert session.decrypt(session.encrypt(message)) == message

    def test_wire_size_matches_encrypted_case(self):
        """Simulations must see realistic datagram sizes."""
        payload = b"z" * 100
        null_wire = NullSession().encrypt(Message(Nonce(0, 3), payload))
        real_wire = Session(Base64Key.new()).encrypt(
            Message(Nonce(0, 3), payload)
        )
        assert len(null_wire) == len(real_wire)
