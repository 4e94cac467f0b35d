"""AES-128 correctness: FIPS-197 vectors, key schedule, kernels, tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.libgpucrypto.aes import (
    NUM_BLOCKS,
    aes128_encrypt_block_reference,
    aes128_encrypt_blocks,
    aes_program,
    aes_program_ct,
    expand_key,
    fixed_plaintext,
    random_key,
)
from repro.apps.libgpucrypto.tables import (
    RCON,
    SBOX,
    SBOX_ARRAY,
    T_TABLES,
    gf_mul,
    xtime,
)
from repro.gpusim import Device, MemoryBatchEvent
from repro.host import CudaRuntime

FIPS_KEY = bytes(range(16))
FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

# FIPS-197 Appendix A.1 key-expansion vector (key 2b7e1516...)
APPENDIX_A_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


class TestGaloisField:
    def test_xtime_known_values(self):
        assert xtime(0x57) == 0xAE
        assert xtime(0xAE) == 0x47  # wraps through the polynomial

    def test_gf_mul_known_values(self):
        # FIPS-197 §4.2.1: 0x57 * 0x13 = 0xFE
        assert gf_mul(0x57, 0x13) == 0xFE

    def test_gf_mul_identity_and_zero(self):
        for value in (0x00, 0x01, 0x53, 0xFF):
            assert gf_mul(value, 1) == value
            assert gf_mul(value, 0) == 0

    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    @settings(max_examples=100, deadline=None)
    def test_property_gf_mul_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)


class TestTables:
    def test_sbox_is_a_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_sbox_known_entries(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x53] == 0xED

    def test_t_tables_encode_mixcolumns_of_sbox(self):
        for x in (0, 1, 0x7F, 0xFF):
            s = SBOX[x]
            expected = ((gf_mul(s, 2) << 24) | (s << 16) | (s << 8)
                        | gf_mul(s, 3))
            assert int(T_TABLES[0][x]) == expected

    def test_t_tables_are_rotations(self):
        def rotr(v, bits):
            return ((v >> bits) | (v << (32 - bits))) & 0xFFFFFFFF

        for x in (0, 5, 200):
            t0 = int(T_TABLES[0][x])
            assert int(T_TABLES[1][x]) == rotr(t0, 8)
            assert int(T_TABLES[2][x]) == rotr(t0, 16)
            assert int(T_TABLES[3][x]) == rotr(t0, 24)

    def test_rcon_values(self):
        assert RCON == [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80,
                        0x1B, 0x36]


class TestKeyExpansion:
    def test_produces_44_words(self):
        assert expand_key(FIPS_KEY).shape == (44,)

    def test_first_words_are_the_key(self):
        words = expand_key(APPENDIX_A_KEY)
        assert int(words[0]) == 0x2B7E1516
        assert int(words[3]) == 0x09CF4F3C

    def test_appendix_a_vector(self):
        words = expand_key(APPENDIX_A_KEY)
        assert int(words[4]) == 0xA0FAFE17   # w4, FIPS-197 Appendix A.1
        assert int(words[43]) == 0xB6630CA6  # w43

    def test_wrong_key_length_rejected(self):
        with pytest.raises(ValueError):
            expand_key(b"short")


class TestReferenceEncryption:
    def test_fips_197_vector(self):
        assert aes128_encrypt_block_reference(
            FIPS_KEY, FIPS_PLAINTEXT) == FIPS_CIPHERTEXT

    def test_appendix_b_vector(self):
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert aes128_encrypt_block_reference(
            APPENDIX_A_KEY, plaintext) == expected

    def test_wrong_block_length_rejected(self):
        with pytest.raises(ValueError):
            aes128_encrypt_block_reference(FIPS_KEY, b"short")

    def test_multi_block_ecb(self):
        data = FIPS_PLAINTEXT * 3
        out = aes128_encrypt_blocks(FIPS_KEY, data)
        assert out == FIPS_CIPHERTEXT * 3

    def test_multi_block_requires_alignment(self):
        with pytest.raises(ValueError):
            aes128_encrypt_blocks(FIPS_KEY, b"x" * 17)


class TestKernels:
    def test_ttable_kernel_matches_reference(self):
        rt = CudaRuntime(Device())
        out = aes_program(rt, FIPS_KEY)
        assert out == aes128_encrypt_blocks(FIPS_KEY, fixed_plaintext())

    def test_ct_kernel_matches_reference(self):
        rt = CudaRuntime(Device())
        out = aes_program_ct(rt, FIPS_KEY)
        assert out == aes128_encrypt_blocks(FIPS_KEY, fixed_plaintext())

    def test_kernels_agree_for_random_keys(self, rng):
        for _ in range(3):
            key = random_key(rng)
            leaky = aes_program(CudaRuntime(Device()), key)
            patched = aes_program_ct(CudaRuntime(Device()), key)
            assert leaky == patched

    def test_fixed_plaintext_shape(self):
        assert len(fixed_plaintext()) == 16 * NUM_BLOCKS

    def test_random_key_length(self, rng):
        assert len(random_key(rng)) == 16

    def test_ttable_kernel_touches_tables(self):
        """The leaky kernel must actually issue T-table device loads."""
        device = Device()
        table_loads = []

        def listen(event):
            if isinstance(event, MemoryBatchEvent):
                table_loads.extend(event.addresses.tolist())

        device.subscribe(listen)
        aes_program(CudaRuntime(device), FIPS_KEY)
        assert len(table_loads) > 1000  # 10 rounds x 16 lookups x warps
