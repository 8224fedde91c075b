"""Crypto microbenchmarks: the datagram sealing path.

Every SSP datagram is sealed with AES-128-OCB (§2.2), so the cipher sits
on the send/receive hot path right after the terminal diff. These
benchmarks time each layer — the raw AES block, OCB seal/unseal at small
(typing), MTU-sized, and large (flood) payloads, and a full
:class:`~repro.crypto.session.Session` datagram round-trip — and emit
machine-readable numbers alongside the hot-path suite so crypto
performance PRs carry a recorded trajectory.

The ``ocb_`` and ``session_`` scenarios time the cipher a
:class:`~repro.crypto.session.Session` actually seals with
(:func:`repro.crypto.backend.cipher_for`: native AES-OCB3 when
``cryptography`` provides a working one, the from-scratch OCB otherwise);
``aes_block`` times the from-scratch AES-128 block cipher, the reference
both are pinned to.

Run via the CLI runner::

    python tools/bench.py            # full run, updates BENCH_hotpath.json
    python tools/bench.py --quick    # CI smoke run

Scenario names are prefixed ``aes_`` / ``ocb_`` / ``session_`` so the
regression gate can tell crypto numbers from terminal-path numbers.
"""

from __future__ import annotations

import sys
import time

from repro.crypto.aes import AES128
from repro.crypto.backend import cipher_for
from repro.crypto.keys import DIRECTION_TO_SERVER, Base64Key, Nonce
from repro.crypto.session import Message, Session

#: (full iterations, quick iterations) per scenario; repeats pick the best.
_SCALE = {"full": (300, 20), "quick": (40, 5)}

_KEY = bytes(range(16))

#: Deterministic payload bytes so every run seals identical plaintext.
_PAYLOAD = bytes((7 * i + 13) & 0xFF for i in range(1400))


def _best_of(fn, iters: int, repeats: int = 3) -> float:
    """Best per-op seconds over ``repeats`` timed batches of ``iters``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - t0) / iters)
    return best


def bench_aes_block(iters: int) -> float:
    cipher = AES128(_KEY)
    block = _PAYLOAD[:16]
    return _best_of(lambda: cipher.encrypt_block(block), iters * 20)


def _nonce_stream():
    """Incrementing single-direction nonces, like a real sender."""
    seq = 0
    while True:
        seq += 1
        yield seq.to_bytes(12, "big")


def _bench_seal(size: int, iters: int) -> float:
    cipher = cipher_for(_KEY)
    payload = _PAYLOAD[:size]
    nonces = _nonce_stream()
    return _best_of(lambda: cipher.encrypt(next(nonces), payload), iters)


def bench_ocb_seal_64(iters: int) -> float:
    return _bench_seal(64, iters * 4)


def bench_ocb_seal_512(iters: int) -> float:
    return _bench_seal(512, iters)


def bench_ocb_seal_1400(iters: int) -> float:
    return _bench_seal(1400, iters)


def bench_ocb_unseal_1400(iters: int) -> float:
    cipher = cipher_for(_KEY)
    nonce = (1).to_bytes(12, "big")
    sealed = cipher.encrypt(nonce, _PAYLOAD)
    return _best_of(lambda: cipher.decrypt(nonce, sealed), iters)


def bench_session_roundtrip(iters: int) -> float:
    """Seal + unseal one MTU-sized datagram through the Session API."""
    session = Session(Base64Key(_KEY))
    payload = _PAYLOAD[:500]
    counter = [0]

    def op() -> None:
        counter[0] += 1
        message = Message(Nonce(DIRECTION_TO_SERVER, counter[0]), payload)
        session.decrypt(session.encrypt(message))

    return _best_of(op, iters)


SCENARIOS = {
    "aes_block": bench_aes_block,
    "ocb_seal_64": bench_ocb_seal_64,
    "ocb_seal_512": bench_ocb_seal_512,
    "ocb_seal_1400": bench_ocb_seal_1400,
    "ocb_unseal_1400": bench_ocb_unseal_1400,
    "session_roundtrip": bench_session_roundtrip,
}


def run_benchmarks(quick: bool = False, verbose: bool = True) -> dict:
    """Run every scenario; returns {"ops": {name: µs/op}, "quick"}."""
    iters_full, iters_quick = _SCALE["full"] if not quick else _SCALE["quick"]
    iters = iters_quick if quick else iters_full
    del iters_full, iters_quick
    ops: dict[str, float] = {}
    for name, fn in SCENARIOS.items():
        seconds = fn(iters)
        ops[name] = round(seconds * 1e6, 3)  # µs per op
        if verbose:
            print(f"  {name:<18} {ops[name]:>12.1f} µs/op", file=sys.stderr)
    return {"quick": quick, "ops": ops}


if __name__ == "__main__":
    import json

    print(json.dumps(run_benchmarks("--quick" in sys.argv), indent=2))
