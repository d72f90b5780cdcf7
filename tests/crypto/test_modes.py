"""Tests for the AES-CTR + HMAC authenticated envelope."""

import secrets

import pytest

from repro.crypto import modes
from repro.crypto.aes import AESFast
from repro.errors import DecryptionError

KEY = b"\x11" * 16


def test_roundtrip_various_lengths():
    for length in (0, 1, 15, 16, 17, 100, 4096):
        plaintext = secrets.token_bytes(length)
        assert modes.decrypt(KEY, modes.encrypt(KEY, plaintext)) == plaintext


def test_ciphertext_layout():
    sealed = modes.encrypt(KEY, b"hello")
    assert len(sealed) == modes.CIPHERTEXT_OVERHEAD + 5


def test_fresh_nonce_randomises_ciphertexts():
    assert modes.encrypt(KEY, b"same") != modes.encrypt(KEY, b"same")


def test_fixed_nonce_is_deterministic():
    nonce = b"\x00" * modes.NONCE_SIZE
    assert modes.encrypt(KEY, b"same", nonce) == modes.encrypt(KEY, b"same", nonce)


def test_bad_nonce_length_rejected():
    with pytest.raises(ValueError):
        modes.encrypt(KEY, b"data", nonce=b"\x00" * 8)


def test_wrong_key_fails_authentication():
    sealed = modes.encrypt(KEY, b"payload")
    with pytest.raises(DecryptionError):
        modes.decrypt(b"\x22" * 16, sealed)


def test_tampered_ciphertext_detected():
    sealed = bytearray(modes.encrypt(KEY, b"payload" * 10))
    sealed[modes.NONCE_SIZE + 3] ^= 0x01
    with pytest.raises(DecryptionError):
        modes.decrypt(KEY, bytes(sealed))


def test_tampered_tag_detected():
    sealed = bytearray(modes.encrypt(KEY, b"payload"))
    sealed[-1] ^= 0x01
    with pytest.raises(DecryptionError):
        modes.decrypt(KEY, bytes(sealed))


def test_truncated_message_detected():
    sealed = modes.encrypt(KEY, b"payload")
    with pytest.raises(DecryptionError):
        modes.decrypt(KEY, sealed[: modes.CIPHERTEXT_OVERHEAD - 1])


def test_ctr_keystream_matches_manual_xor():
    """CTR is keystream XOR: enc(m1) xor enc(m2) == m1 xor m2 under the
    same nonce (this is why nonces must be fresh — and why the envelope
    draws them randomly)."""
    nonce = b"\x07" * modes.NONCE_SIZE
    m1 = b"A" * 32
    m2 = b"B" * 32
    c1 = modes.encrypt(KEY, m1, nonce)
    c2 = modes.encrypt(KEY, m2, nonce)
    body1 = c1[modes.NONCE_SIZE : modes.NONCE_SIZE + 32]
    body2 = c2[modes.NONCE_SIZE : modes.NONCE_SIZE + 32]
    xored = bytes(a ^ b for a, b in zip(body1, body2))
    assert xored == bytes(a ^ b for a, b in zip(m1, m2))


def test_ctr_counter_increments_across_blocks():
    """Different 16-byte blocks must use different keystream blocks."""
    nonce = b"\x00" * modes.NONCE_SIZE
    zeros = b"\x00" * 48
    sealed = modes.encrypt(KEY, zeros, nonce)
    body = sealed[modes.NONCE_SIZE : modes.NONCE_SIZE + 48]
    blocks = {body[i : i + 16] for i in range(0, 48, 16)}
    assert len(blocks) == 3


def test_subkey_derivation_separates_enc_and_mac():
    enc_key, mac_key = modes._derive_subkeys(KEY)
    assert enc_key != mac_key[: len(enc_key)]
    assert len(enc_key) == len(KEY)
    assert len(mac_key) == 32


def test_ctr_xor_is_involution():
    """On the batched path and on the reference loop, which agree."""
    cipher = AESFast(KEY)
    nonce = b"\x05" * 16
    data = secrets.token_bytes(100)
    once = modes._ctr_keystream_xor(cipher, nonce, data)
    assert modes._ctr_keystream_xor(cipher, nonce, once) == data
    assert modes.ctr_xor_reference(KEY, nonce, data) == once
    assert modes.ctr_xor_reference(KEY, nonce, once) == data
