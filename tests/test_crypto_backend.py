"""The cipher seam: native AES-OCB3 vs the from-scratch reference.

:func:`repro.crypto.backend.cipher_for` hands sessions the native
``AESOCB3`` adapter when ``cryptography`` provides a working one and the
pure :class:`~repro.crypto.ocb.OCBCipher` otherwise. These tests pin the two
to each other (differentially and on the RFC 7253 vectors), pin the
adapter's error contract, and check that the daemon path never pulls in
numpy. :class:`PureBackend` is the mixin other suites subclass to re-run
their session tests on the fallback.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import backend
from repro.crypto.keys import DIRECTION_TO_SERVER, Base64Key, Nonce
from repro.crypto.ocb import OCBCipher
from repro.crypto.session import Message, Session
from repro.errors import AuthenticationError, CryptoError
from tests.test_crypto_ocb import RFC_KEY, RFC_VECTORS

native = pytest.mark.skipif(
    backend.AESOCB3 is None, reason="cryptography not installed"
)


class PureBackend:
    """Mixin: run the inherited tests with ``cipher_for`` on the fallback.

    Hiding ``AESOCB3`` is exactly what an install without
    ``cryptography`` looks like to the selection, so the fallback stays
    covered wherever the native backend is present.
    """

    @pytest.fixture(autouse=True)
    def _pure_cipher(self, monkeypatch):
        monkeypatch.setattr(backend, "AESOCB3", None)


class TestSelection:
    @native
    def test_native_when_importable(self):
        assert isinstance(backend.cipher_for(RFC_KEY), backend.NativeOCB)
        assert isinstance(Session(Base64Key(RFC_KEY))._cipher, backend.NativeOCB)

    def test_pure_when_absent(self, monkeypatch):
        monkeypatch.setattr(backend, "AESOCB3", None)
        assert isinstance(backend.cipher_for(RFC_KEY), OCBCipher)
        assert isinstance(Session(Base64Key(RFC_KEY))._cipher, OCBCipher)


# Stand-ins for an ``AESOCB3`` that imports but does not work. They are
# source text so a subprocess can install one before ``backend`` imports.
_FAKES = '''
class RejectsMemoryview:
    """Shaped like older cryptography, whose decrypt wants bytes only."""

    def __init__(self, key):
        pass

    def encrypt(self, nonce, data, associated_data):
        return bytes(len(data) + 16)

    def decrypt(self, nonce, data, associated_data):
        if not isinstance(data, bytes):
            raise TypeError("data must be bytes")
        return bytes(len(data) - 16)


class NoOcbInOpenSSL:
    """Shaped like an OpenSSL build without OCB: the key is refused."""

    def __init__(self, key):
        raise RuntimeError("UnsupportedAlgorithm: OCB is not supported")
'''
_FAKE_NAMES = ["RejectsMemoryview", "NoOcbInOpenSSL"]

_FAKE_AESOCB3_SCRIPT = _FAKES + """
from cryptography.hazmat.primitives.ciphers import aead
aead.AESOCB3 = {fake}
from repro.crypto import backend
from repro.crypto.keys import Base64Key
from repro.crypto.ocb import OCBCipher
from repro.crypto.session import Session
print(backend.AESOCB3 is None,
      type(backend.cipher_for(bytes(16))) is OCBCipher,
      type(Session(Base64Key(bytes(16)))._cipher) is OCBCipher)
"""


class TestUsabilityCheck:
    """Importable but broken ``AESOCB3`` must fall back, not fail."""

    @pytest.mark.parametrize("fake", _FAKE_NAMES)
    def test_fake_rejected(self, fake):
        fakes = {}
        exec(_FAKES, fakes)
        assert not backend._usable(fakes[fake])

    @native
    def test_real_accepted(self):
        assert backend._usable(backend.AESOCB3)

    @native
    @pytest.mark.parametrize("fake", _FAKE_NAMES)
    def test_import_falls_back(self, fake):
        out = subprocess.run(
            [sys.executable, "-c", _FAKE_AESOCB3_SCRIPT.format(fake=fake)],
            env=_src_env(), capture_output=True, text=True, timeout=60,
            check=True,
        )
        assert out.stdout.split() == ["True", "True", "True"]


@native
class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        key=st.binary(min_size=16, max_size=16),
        nonce=st.binary(min_size=12, max_size=15),
        plaintext=st.binary(max_size=1400),
        ad=st.binary(max_size=64),
    )
    def test_native_equals_pure(self, key, nonce, plaintext, ad):
        fast, ref = backend.NativeOCB(key), OCBCipher(key)
        sealed = fast.encrypt(nonce, plaintext, ad)
        assert sealed == ref.encrypt(nonce, plaintext, ad)
        assert fast.decrypt(nonce, sealed, ad) == plaintext
        assert ref.decrypt(nonce, sealed, ad) == plaintext

    @pytest.mark.parametrize("size", [16, 80, 96, 500, 1400, 1407])
    def test_seal_parity(self, size):
        """Both backends seal MTU-range payloads byte-identically."""
        payload = bytes((5 * i + 3) & 0xFF for i in range(size))
        nonce, ad = b"\xAB" * 12, b"hdr"
        sealed = OCBCipher(RFC_KEY).encrypt(nonce, payload, ad)
        fast = backend.NativeOCB(RFC_KEY)
        assert fast.encrypt(nonce, payload, ad) == sealed
        assert fast.decrypt(nonce, memoryview(sealed), ad) == payload

    def test_sessions_interoperate_across_backends(self, monkeypatch):
        key = Base64Key(bytes(range(16)))
        fast = Session(key)
        monkeypatch.setattr(backend, "AESOCB3", None)
        ref = Session(key)
        for seq, text in enumerate([b"", b"k", b"x" * 1300]):
            message = Message(Nonce(DIRECTION_TO_SERVER, seq), text)
            assert fast.encrypt(message) == ref.encrypt(message)
            assert ref.decrypt(fast.encrypt(message)).text == text


class TestRfc7253BothBackends:
    @pytest.mark.parametrize(
        "make", [OCBCipher, pytest.param(backend.NativeOCB, marks=native)],
        ids=["pure", "native"],
    )
    @pytest.mark.parametrize("nonce,ad,pt,expected", RFC_VECTORS)
    def test_vector(self, make, nonce, ad, pt, expected):
        cipher = make(RFC_KEY)
        nonce, ad, pt = (bytes.fromhex(x) for x in (nonce, ad, pt))
        assert cipher.encrypt(nonce, pt, ad).hex().upper() == expected
        assert cipher.decrypt(nonce, bytes.fromhex(expected), ad) == pt


@native
class TestNativeErrorMapping:
    """Failures surface as the repo's errors, never the library's."""

    NONCE = bytes(range(12))

    def sealed(self):
        return backend.NativeOCB(RFC_KEY).encrypt(self.NONCE, b"payload", b"ad")

    def test_tampered_body(self):
        bad = bytearray(self.sealed())
        bad[0] ^= 1
        with pytest.raises(AuthenticationError):
            backend.NativeOCB(RFC_KEY).decrypt(self.NONCE, bytes(bad), b"ad")

    def test_wrong_ad(self):
        with pytest.raises(AuthenticationError):
            backend.NativeOCB(RFC_KEY).decrypt(self.NONCE, self.sealed(), b"")

    @pytest.mark.parametrize("length", [0, 1, 15])
    def test_short_body(self, length):
        with pytest.raises(AuthenticationError):
            backend.NativeOCB(RFC_KEY).decrypt(self.NONCE, bytes(length))

    @pytest.mark.parametrize("length", [0, 1, 11, 16])
    def test_bad_nonce_length(self, length):
        cipher = backend.NativeOCB(RFC_KEY)
        with pytest.raises(CryptoError) as seal_err:
            cipher.encrypt(bytes(length), b"data")
        with pytest.raises(CryptoError) as open_err:
            cipher.decrypt(bytes(length), bytes(32))
        for err in (seal_err, open_err):
            assert not isinstance(err.value, AuthenticationError)

    @pytest.mark.parametrize("length", [15, 24, 32])
    def test_non_aes128_key(self, length):
        with pytest.raises(CryptoError):
            backend.NativeOCB(bytes(length))

    def test_errors_are_not_library_types(self):
        from cryptography.exceptions import InvalidTag

        cipher = backend.NativeOCB(RFC_KEY)
        for call in (
            lambda: cipher.decrypt(self.NONCE, bytes(40)),
            lambda: cipher.decrypt(self.NONCE, b"short"),
            lambda: cipher.encrypt(b"tiny", b"data"),
        ):
            with pytest.raises(CryptoError) as err:
                call()
            assert not isinstance(err.value, (InvalidTag, ValueError))


_NO_NUMPY_SCRIPT = """
import sys
from repro.daemon.app import DaemonApp
from repro.session.inprocess import InProcessDaemon
from repro.simnet import LinkConfig

daemon = InProcessDaemon(LinkConfig(), LinkConfig(), sessions=2, seed=1)
daemon.connect(warmup_ms=200)
app = DaemonApp(argv=["/bin/sh"], bind_host="127.0.0.1", sessions=1)
app.shutdown()
print("numpy" in sys.modules)
"""


def _src_env():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def test_daemon_path_does_not_import_numpy():
    """numpy costs ~14 MB RSS per daemon; nothing on this path needs it."""
    out = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT],
        env=_src_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"
