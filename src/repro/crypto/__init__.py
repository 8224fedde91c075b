"""Cryptography substrate for SSP.

The paper builds SSP's security on AES-128 in the Offset Codebook (OCB)
mode, "which provides confidentiality and authenticity with a single secret
key" (§2.2). This package implements both from scratch:

* :mod:`repro.crypto.aes` — the AES-128 block cipher (FIPS 197).
* :mod:`repro.crypto.ocb` — OCB authenticated encryption (RFC 7253 layout).
* :mod:`repro.crypto.backend` — picks the cipher sessions seal with: the
  native ``AESOCB3`` from ``cryptography`` when it is present and works,
  the from-scratch OCB otherwise.
* :mod:`repro.crypto.keys` — random session keys and Mosh's base64 key text.
* :mod:`repro.crypto.session` — the per-connection encrypt/decrypt API used
  by the datagram layer, including the nonce construction (direction bit +
  sequence number).
"""

from repro.crypto.aes import AES128
from repro.crypto.keys import Base64Key, Nonce
from repro.crypto.ocb import OCBCipher
from repro.crypto.session import Message, NullSession, Session

__all__ = [
    "AES128",
    "Base64Key",
    "Message",
    "Nonce",
    "NullSession",
    "OCBCipher",
    "Session",
]
