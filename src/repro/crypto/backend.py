"""Cipher selection: native AES-OCB3 when the platform provides it.

Every SSP datagram is sealed with AES-128-OCB (§2.2). The from-scratch
:class:`~repro.crypto.ocb.OCBCipher` is the reference implementation,
pinned to the RFC 7253 vectors; when the ``cryptography`` package
provides it, the OpenSSL-backed ``AESOCB3`` computes the same function
about a hundred times faster. :func:`cipher_for` picks between them by
what the platform provides — there is no option or environment switch.
Being importable is not enough: at import, ``AESOCB3`` must also seal
and then open through a memoryview, the way :class:`Session` calls it.
Older ``cryptography`` releases reject memoryviews, and OpenSSL builds
without OCB (LibreSSL, BoringSSL, FIPS mode) refuse the key; on those
the pure cipher is used.

:class:`NativeOCB` adapts ``AESOCB3`` to the ``OCBCipher`` contract:
``encrypt(nonce, pt, ad=b"")`` returns ciphertext || 16-byte tag,
``decrypt`` raises :class:`~repro.errors.AuthenticationError` on any
tag failure (including a body shorter than the tag), and a bad key or
nonce raises :class:`~repro.errors.CryptoError` — never the library's
own ``InvalidTag``/``ValueError``.
"""

from __future__ import annotations

from repro.crypto.ocb import TAG_LEN, OCBCipher
from repro.errors import AuthenticationError, CryptoError

try:
    from cryptography.exceptions import InvalidTag
    from cryptography.hazmat.primitives.ciphers.aead import AESOCB3
except ImportError:  # pragma: no cover - exercised where cryptography is absent
    AESOCB3 = None


def _usable(aead_cls) -> bool:
    """Does ``aead_cls`` seal and open the way the session layer calls it?"""
    try:
        aead = aead_cls(bytes(16))
        sealed = aead.encrypt(bytes(12), b"", None)
        return aead.decrypt(bytes(12), memoryview(b"\0" + sealed)[1:], None) == b""
    except Exception:
        return False


if AESOCB3 is not None and not _usable(AESOCB3):
    AESOCB3 = None


def _check_nonce(nonce: bytes) -> None:
    # AESOCB3 accepts 12..15-byte nonces; SSP's are always 12 bytes.
    if not 12 <= len(nonce) <= 15:
        raise CryptoError(f"nonce must be 12..15 bytes, got {len(nonce)}")


class NativeOCB:
    """AES-128-OCB3 (128-bit tag) over ``cryptography``'s ``AESOCB3``."""

    __slots__ = ("_aead",)

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise CryptoError(f"AES-128 key must be 16 bytes, got {len(key)}")
        self._aead = AESOCB3(bytes(key))

    def encrypt(
        self, nonce: bytes, plaintext: bytes, associated_data: bytes = b""
    ) -> bytes:
        """Return ciphertext || 16-byte tag."""
        _check_nonce(nonce)
        return self._aead.encrypt(nonce, plaintext, associated_data or None)

    def decrypt(
        self, nonce: bytes, ciphertext: bytes, associated_data: bytes = b""
    ) -> bytes:
        """Verify the tag and return the plaintext (bytes or memoryview in)."""
        _check_nonce(nonce)
        if len(ciphertext) < TAG_LEN:
            raise AuthenticationError("ciphertext shorter than the tag")
        try:
            return self._aead.decrypt(nonce, ciphertext, associated_data or None)
        except InvalidTag:
            raise AuthenticationError("OCB tag verification failed") from None


def cipher_for(key: bytes) -> NativeOCB | OCBCipher:
    """The fastest available AES-128-OCB cipher for ``key``."""
    if AESOCB3 is not None:
        return NativeOCB(key)
    return OCBCipher(key)
