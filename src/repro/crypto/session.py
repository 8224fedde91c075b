"""Per-connection encryption sessions.

A :class:`Session` turns (nonce, payload) messages into sealed datagrams and
back. The wire layout of a sealed datagram is::

    8 bytes   nonce (direction bit | 63-bit sequence number), cleartext
    N+16      OCB ciphertext of the payload, including the 16-byte tag

Because every datagram is an idempotent state diff, SSP needs no replay
cache for *correctness* (§2.2): replayed packets re-apply a diff the
receiver has already applied, which is a no-op, and the transport layer
ignores stale sequence numbers for roaming purposes. The session still
keeps a per-direction sliding replay window so that datagrams re-using an
already-seen sequence number are counted and dropped
(:class:`~repro.errors.ReplayError`) rather than silently re-processed —
integrity anomalies must be observable, as the Terrapin attack on SSH
demonstrated. The window is far wider than any realistic reordering, so
jittered links never trip it.

:class:`NullSession` implements the same interface with no cryptography.
It is an explicit opt-in (``--no-crypto`` in the trace-replay CLI,
``encrypt=False`` on in-process sessions) kept for debugging and for
isolating crypto cost in benchmarks; every harness defaults to real
AES-128-OCB, as the paper's protocol requires, and real-UDP sessions
always encrypt.

Both session types keep :class:`CryptoStats` instruments: counters
(datagrams/bytes sealed and unsealed, authentication failures, replay
drops) plus always-on seal/unseal latency histograms in microseconds,
which the runtime bridges into the reactor's metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.crypto.backend import cipher_for
from repro.crypto.keys import OCB_NONCE_PREFIX, Base64Key, Nonce
from repro.crypto.ocb import TAG_LEN
from repro.errors import AuthenticationError, CryptoError, ReplayError
from repro.obs.registry import Histogram

_NONCE_WIRE_LEN = 8

#: Largest payload a session will seal; mirrors Mosh's receive buffer bound.
MAX_PAYLOAD_LEN = 64 * 1024

#: Sliding replay-window width, in sequence numbers, per direction. Far
#: wider than SSP's in-flight budget (about one instruction per RTT), so
#: only genuine duplicates or ancient replays can land outside it.
REPLAY_WINDOW = 1024


@dataclass(frozen=True)
class Message:
    """A (nonce, payload) pair, the unit the datagram layer encrypts."""

    nonce: Nonce
    text: bytes


class CryptoStats:
    """Counters and latency histograms for one session's sealing path."""

    __slots__ = (
        "datagrams_sealed",
        "bytes_sealed",
        "datagrams_unsealed",
        "bytes_unsealed",
        "auth_failures",
        "replay_drops",
        "seal_us",
        "unseal_us",
        "last_seal_us",
        "last_unseal_us",
    )

    #: The counter names exposed by :meth:`snapshot` (the pump bridges
    #: each of these into the reactor metrics by name).
    COUNTER_NAMES = (
        "datagrams_sealed",
        "bytes_sealed",
        "datagrams_unsealed",
        "bytes_unsealed",
        "auth_failures",
        "replay_drops",
    )

    def __init__(self) -> None:
        self.datagrams_sealed = 0
        self.bytes_sealed = 0
        self.datagrams_unsealed = 0
        self.bytes_unsealed = 0
        self.auth_failures = 0
        self.replay_drops = 0
        # Wall-clock cost of each seal/unseal in microseconds (CPU cost,
        # deliberately wall-time even on simulated-clock sessions).
        # 1 µs .. 1 s spans the native backend through the pure-Python
        # kernel at large payloads.
        self.seal_us = Histogram(
            "crypto.seal_us", low=1.0, high=1_000_000.0, unit="us"
        )
        self.unseal_us = Histogram(
            "crypto.unseal_us", low=1.0, high=1_000_000.0, unit="us"
        )
        # Most recent per-datagram cost, read by the causal tracer to
        # carve crypto CPU out of a keystroke's stage timeline. Plain
        # floats, always maintained — the histograms above gate on the
        # global observability switch.
        self.last_seal_us = 0.0
        self.last_unseal_us = 0.0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.COUNTER_NAMES}


class _ReplayWindow:
    """Per-direction sliding bitmap over authenticated sequence numbers."""

    __slots__ = ("highest", "mask")

    def __init__(self) -> None:
        self.highest = -1
        self.mask = 0  # bit i set <=> seq (highest - i) was seen

    def note(self, seq: int) -> bool:
        """Record ``seq``; returns False if it is a replay (drop it)."""
        if seq > self.highest:
            shift = seq - self.highest
            self.mask = ((self.mask << shift) | 1) & ((1 << REPLAY_WINDOW) - 1)
            self.highest = seq
            return True
        offset = self.highest - seq
        if offset >= REPLAY_WINDOW:
            return False  # too old to verify uniqueness: treat as replayed
        bit = 1 << offset
        if self.mask & bit:
            return False
        self.mask |= bit
        return True


class Session:
    """Seals and unseals datagrams with AES-128-OCB under one shared key."""

    def __init__(self, key: Base64Key) -> None:
        self._key = key
        self._cipher = cipher_for(key.key)
        self.stats = CryptoStats()
        # One replay window per direction bit: an endpoint normally
        # decrypts only its peer's direction, but reflected datagrams are
        # filtered *after* decryption and must not pollute the window.
        self._replay = (_ReplayWindow(), _ReplayWindow())

    @property
    def key(self) -> Base64Key:
        return self._key

    def encrypt(self, message: Message) -> bytes:
        """Seal a message into wire bytes."""
        text = message.text
        if len(text) > MAX_PAYLOAD_LEN:
            raise CryptoError(
                f"payload of {len(text)} bytes exceeds "
                f"{MAX_PAYLOAD_LEN}-byte bound"
            )
        t0 = perf_counter()
        sealed = self._cipher.encrypt(message.nonce.ocb(), text)
        elapsed = (perf_counter() - t0) * 1e6
        stats = self.stats
        stats.last_seal_us = elapsed
        stats.seal_us.record(elapsed)
        stats.datagrams_sealed += 1
        stats.bytes_sealed += len(text)
        return message.nonce.wire() + sealed

    def probe(self, data: bytes) -> bool:
        """Does this datagram authenticate under this session's key?

        A side-effect-free check for the mux daemon's legacy-source
        fallback routing: no counters move and the replay window is not
        touched, so a positive probe can be followed by a real
        :meth:`decrypt` of the same bytes.
        """
        if len(data) < _NONCE_WIRE_LEN + TAG_LEN:
            return False
        view = memoryview(data)
        try:
            self._cipher.decrypt(
                OCB_NONCE_PREFIX + bytes(view[:_NONCE_WIRE_LEN]),
                view[_NONCE_WIRE_LEN:],
            )
            return True
        except CryptoError:
            return False

    def decrypt(self, data: bytes) -> Message:
        """Unseal wire bytes; raises AuthenticationError on tampering and
        ReplayError on an authentic but sequence-reusing datagram."""
        if len(data) < _NONCE_WIRE_LEN + TAG_LEN:
            # Too short to carry a tag: as unauthenticated as a bad one.
            self.stats.auth_failures += 1
            raise CryptoError(f"datagram too short to unseal: {len(data)} bytes")
        # One memoryview keeps the header split and the cipher's block
        # walk copy-free; the 12-byte OCB nonce is built straight from the
        # wire header rather than re-serializing a parsed Nonce.
        view = memoryview(data)
        wire = bytes(view[:_NONCE_WIRE_LEN])
        t0 = perf_counter()
        try:
            text = self._cipher.decrypt(
                OCB_NONCE_PREFIX + wire, view[_NONCE_WIRE_LEN:]
            )
        except AuthenticationError:
            self.stats.auth_failures += 1
            raise
        elapsed = (perf_counter() - t0) * 1e6
        stats = self.stats
        stats.last_unseal_us = elapsed
        stats.unseal_us.record(elapsed)
        nonce = Nonce.from_wire(wire)
        if not self._replay[nonce.direction].note(nonce.seq):
            stats.replay_drops += 1
            raise ReplayError(
                f"replayed sequence number {nonce.seq} "
                f"(direction {nonce.direction})"
            )
        stats.datagrams_unsealed += 1
        stats.bytes_unsealed += len(text)
        return Message(nonce=nonce, text=text)


class NullSession:
    """Plaintext stand-in for :class:`Session` (explicit opt-in only).

    Keeps the exact wire framing (8-byte nonce header) but stores the
    payload unencrypted with a 16-byte zero "tag" so datagram sizes match
    the encrypted case, preserving bandwidth behaviour in simulations.
    The replay window is kept too, so integrity counters behave the same
    in plaintext debugging runs (minus ``auth_failures``, which only real
    authentication can raise).

    Simulation harnesses default to real encryption; reach for this only
    via their explicit plaintext switches (``--no-crypto`` /
    ``encrypt=False``) when isolating crypto cost or debugging wire
    contents.
    """

    def __init__(self, key: Base64Key | None = None) -> None:
        self._key = key or Base64Key(bytes(16))
        self.stats = CryptoStats()
        self._replay = (_ReplayWindow(), _ReplayWindow())

    @property
    def key(self) -> Base64Key:
        return self._key

    def encrypt(self, message: Message) -> bytes:
        if len(message.text) > MAX_PAYLOAD_LEN:
            raise CryptoError(
                f"payload of {len(message.text)} bytes exceeds "
                f"{MAX_PAYLOAD_LEN}-byte bound"
            )
        t0 = perf_counter()
        wire = message.nonce.wire() + message.text + bytes(TAG_LEN)
        elapsed = (perf_counter() - t0) * 1e6
        stats = self.stats
        stats.last_seal_us = elapsed
        stats.seal_us.record(elapsed)
        stats.datagrams_sealed += 1
        stats.bytes_sealed += len(message.text)
        return wire

    def probe(self, data: bytes) -> bool:
        """Parseability stand-in for :meth:`Session.probe`.

        Plaintext sessions cannot distinguish peers cryptographically, so
        any well-formed datagram probes true — the mux daemon's legacy
        fallback routing is only meaningful with real per-session keys.
        """
        return len(data) >= _NONCE_WIRE_LEN + TAG_LEN

    def decrypt(self, data: bytes) -> Message:
        if len(data) < _NONCE_WIRE_LEN + TAG_LEN:
            raise CryptoError(f"datagram too short to unseal: {len(data)} bytes")
        t0 = perf_counter()
        # ``bytes()`` both normalizes a memoryview input (the zero-copy
        # receive path hands views into reusable buffers) and detaches
        # the retained Message payload from the caller's buffer.
        nonce = Nonce.from_wire(bytes(data[:_NONCE_WIRE_LEN]))
        text = bytes(data[_NONCE_WIRE_LEN:-TAG_LEN])
        elapsed = (perf_counter() - t0) * 1e6
        stats = self.stats
        stats.last_unseal_us = elapsed
        stats.unseal_us.record(elapsed)
        if not self._replay[nonce.direction].note(nonce.seq):
            stats.replay_drops += 1
            raise ReplayError(
                f"replayed sequence number {nonce.seq} "
                f"(direction {nonce.direction})"
            )
        stats.datagrams_unsealed += 1
        stats.bytes_unsealed += len(text)
        return Message(nonce=nonce, text=text)


# ----------------------------------------------------------------------
# Per-flush entry points for the wire batchers
# ----------------------------------------------------------------------


def seal_many(pairs) -> list[bytes]:
    """Seal ``[(session, Message), ...]``, one ``encrypt`` per pair."""
    return [session.encrypt(message) for session, message in pairs]


def unseal_many(pairs) -> list:
    """Unseal ``[(session, raw), ...]`` with errors as values.

    ``raw`` may be ``bytes`` or a ``memoryview`` (reusable receive
    buffers: everything retained is materialized before return). Each
    slot holds the :class:`Message`, or the exception ``decrypt`` raised
    (:class:`CryptoError` subclass) *as a value*, so one forged datagram
    cannot abort its batchmates. Stats and replay windows move exactly
    as under per-datagram ``decrypt``.
    """
    out: list = []
    for session, data in pairs:
        try:
            out.append(session.decrypt(data))
        except CryptoError as exc:
            out.append(exc)
    return out
