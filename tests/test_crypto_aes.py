"""AES-128 against FIPS 197 / NIST SP 800-38A, plus kernel equivalence.

The module ships two kernels that must agree bit-for-bit: the classic
bytes-API word kernel and the int-domain batch kernel (``*_block_int`` /
``*_blocks_int``). The vectors anchor the bytes API; the property tests
pin the int kernel to it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES128, INV_SBOX, SBOX
from repro.errors import CryptoError


class TestSbox:
    def test_known_entries(self):
        # FIPS 197 Figure 7.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_inverse_is_inverse(self):
        for value in range(256):
            assert INV_SBOX[SBOX[value]] == value

    def test_sbox_is_permutation(self):
        assert sorted(SBOX) == list(range(256))


class TestFips197:
    def test_appendix_b_vector(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert AES128(key).encrypt_block(pt) == expected

    def test_appendix_c_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        cipher = AES128(key)
        assert cipher.encrypt_block(pt) == expected
        assert cipher.decrypt_block(expected) == pt


class TestBlockInterface:
    def test_bad_key_length(self):
        with pytest.raises(CryptoError):
            AES128(b"short")

    def test_bad_block_length(self):
        cipher = AES128(bytes(16))
        with pytest.raises(CryptoError):
            cipher.encrypt_block(b"x" * 15)
        with pytest.raises(CryptoError):
            cipher.decrypt_block(b"x" * 17)

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    def test_roundtrip(self, key, block):
        cipher = AES128(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    @given(st.binary(min_size=16, max_size=16))
    def test_encryption_changes_block(self, block):
        cipher = AES128(b"\x01" * 16)
        assert cipher.encrypt_block(block) != block  # overwhelmingly likely

    def test_different_keys_different_ciphertexts(self):
        block = bytes(16)
        a = AES128(bytes(16)).encrypt_block(block)
        b = AES128(b"\x01" + bytes(15)).encrypt_block(block)
        assert a != b


# NIST SP 800-38A F.1.1/F.1.2 (ECB-AES128): (plaintext, ciphertext).
NIST_ECB_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
NIST_ECB_VECTORS = [
    ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
    ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
    ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
    ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
]


class TestNistEcb:
    @pytest.mark.parametrize("pt,ct", NIST_ECB_VECTORS)
    def test_encrypt_decrypt(self, pt, ct):
        cipher = AES128(NIST_ECB_KEY)
        assert cipher.encrypt_block(bytes.fromhex(pt)).hex() == ct
        assert cipher.decrypt_block(bytes.fromhex(ct)).hex() == pt

    def test_int_kernel_matches_vectors(self):
        cipher = AES128(NIST_ECB_KEY)
        pts = [int(pt, 16) for pt, _ in NIST_ECB_VECTORS]
        cts = [int(ct, 16) for _, ct in NIST_ECB_VECTORS]
        assert cipher.encrypt_blocks_int(pts) == cts
        assert cipher.decrypt_blocks_int(cts) == pts


class TestIntKernel:
    """The int-domain kernel must equal the bytes API on every input."""

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    def test_single_block_equivalence(self, key, block):
        cipher = AES128(key)
        x = int.from_bytes(block, "big")
        assert cipher.encrypt_block_int(x) == int.from_bytes(
            cipher.encrypt_block(block), "big"
        )
        assert cipher.decrypt_block_int(x) == int.from_bytes(
            cipher.decrypt_block(block), "big"
        )

    @settings(max_examples=25, deadline=None)
    @given(
        st.binary(min_size=16, max_size=16),
        st.lists(st.integers(min_value=0, max_value=(1 << 128) - 1), max_size=20),
    )
    def test_multi_block_equals_singles(self, key, blocks):
        cipher = AES128(key)
        assert cipher.encrypt_blocks_int(blocks) == [
            cipher.encrypt_block_int(b) for b in blocks
        ]
        assert cipher.decrypt_blocks_int(blocks) == [
            cipher.decrypt_block_int(b) for b in blocks
        ]

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_roundtrip(self, x):
        cipher = AES128(b"\x5A" * 16)
        assert cipher.decrypt_block_int(cipher.encrypt_block_int(x)) == x

    def test_accepts_any_iterable(self):
        cipher = AES128(bytes(16))
        from_gen = cipher.encrypt_blocks_int(i**3 for i in range(5))
        assert from_gen == cipher.encrypt_blocks_int([i**3 for i in range(5)])
