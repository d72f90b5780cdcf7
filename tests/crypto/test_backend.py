"""The crypto fast path against its oracle: FIPS-197, CTR, envelope.

:class:`AESFast` and the batched CTR path in :mod:`repro.crypto.modes`
must be byte-identical to the reference :class:`AES` everywhere — these
tests pin the published vectors on the fast path, compare keystreams
and whole sealed messages with ones built from :class:`AES` alone, and
check the caching contracts (key-schedule reuse, CRT-parameter
memoisation).
"""

import secrets

import pytest

from repro.crypto import backend, modes, rsa
from repro.crypto.aes import AES, AESFast
from repro.crypto.hashing import hmac_sha256, sha256
from repro.errors import DecryptionError
from tests.crypto.test_aes import FIPS_VECTORS, PLAINTEXT


# -- the oracle: the envelope built from the reference AES alone -------------


def _subkeys(key: bytes) -> tuple[bytes, bytes]:
    """The wire format's subkey derivation, restated (not imported)."""
    return sha256(b"ledgerview/enc" + key)[: len(key)], sha256(b"ledgerview/mac" + key)


def aes_built_envelope(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """``nonce || ciphertext || tag`` from :class:`AES`, block by block."""
    enc_key, mac_key = _subkeys(key)
    ciphertext = modes.ctr_xor_reference(enc_key, nonce, plaintext)
    return nonce + ciphertext + hmac_sha256(mac_key, nonce + ciphertext)


def open_aes_built_envelope(key: bytes, sealed: bytes) -> bytes:
    enc_key, mac_key = _subkeys(key)
    nonce, ciphertext, tag = sealed[:16], sealed[16:-32], sealed[-32:]
    if hmac_sha256(mac_key, nonce + ciphertext) != tag:
        raise DecryptionError("oracle: tag mismatch")
    return modes.ctr_xor_reference(enc_key, nonce, ciphertext)


# -- FIPS-197 on the fast path (the reference: tests/crypto/test_aes.py) ------ ---------------------------------------


@pytest.mark.parametrize("key_hex,expected_hex", FIPS_VECTORS)
def test_fips197_fast_encrypt(key_hex, expected_hex):
    cipher = AESFast(bytes.fromhex(key_hex))
    assert cipher.encrypt_block(PLAINTEXT).hex() == expected_hex


@pytest.mark.parametrize("key_hex,expected_hex", FIPS_VECTORS)
def test_fips197_fast_decrypt(key_hex, expected_hex):
    cipher = AESFast(bytes.fromhex(key_hex))
    assert cipher.decrypt_block(bytes.fromhex(expected_hex)) == PLAINTEXT


def test_appendix_b_vector_fast():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
    expected = "3925841d02dc09fbdc118597196a0b32"
    assert AESFast(key).encrypt_block(plaintext).hex() == expected


# -- CTR keystream equivalence ---------------------------------------------


def _reference_keystream(key: bytes, counter: int, nblocks: int) -> bytes:
    cipher = AES(key)
    out = bytearray()
    for i in range(nblocks):
        out += cipher.encrypt_block(((counter + i) % (1 << 128)).to_bytes(16, "big"))
    return bytes(out)


@pytest.mark.parametrize(
    "counter",
    [
        0,
        1,
        (1 << 32) - 2,  # carry across the low numpy-lane boundary
        (1 << 64) - 2,  # carry into the high 64-bit lane
        (1 << 96) - 2,
        (1 << 128) - 2,  # full 128-bit wraparound
    ],
)
@pytest.mark.parametrize("nblocks", [1, 5, 33])
def test_ctr_keystream_matches_reference(counter, nblocks):
    key = secrets.token_bytes(16)
    expected = _reference_keystream(key, counter, nblocks)
    assert AESFast(key).ctr_keystream(counter, nblocks) == expected


def test_ctr_keystream_scalar_and_vector_paths_agree():
    key = secrets.token_bytes(32)
    cipher = AESFast(key)
    counter = int.from_bytes(secrets.token_bytes(16), "big")
    nblocks = 40  # above the numpy dispatch threshold
    batched = cipher.ctr_keystream(counter, nblocks)
    scalar = cipher._ctr_keystream_py(counter, nblocks)
    assert batched == scalar


# -- sealed messages against the AES-built envelope ---------------------------


@pytest.mark.parametrize("key_size", [16, 24, 32])
@pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 777])
def test_same_nonce_same_bytes_as_the_aes_built_envelope(key_size, length):
    key = secrets.token_bytes(key_size)
    nonce = secrets.token_bytes(16)
    payload = secrets.token_bytes(length)
    assert modes.encrypt(key, payload, nonce=nonce) == aes_built_envelope(
        key, payload, nonce
    )


def test_sealed_messages_interoperate_with_the_aes_built_envelope():
    """What the library seals the oracle opens, and the other way round."""
    key = secrets.token_bytes(32)
    payload = secrets.token_bytes(777)
    assert open_aes_built_envelope(key, modes.encrypt(key, payload)) == payload
    oracle_sealed = aes_built_envelope(key, payload, secrets.token_bytes(16))
    assert modes.decrypt(key, oracle_sealed) == payload


def test_ctr_nonce_wraparound_matches_the_reference_loop():
    key = secrets.token_bytes(16)
    nonce = ((1 << 128) - 2).to_bytes(16, "big")
    payload = secrets.token_bytes(100)
    assert modes.encrypt(key, payload, nonce=nonce) == aes_built_envelope(
        key, payload, nonce
    )


# -- caching contracts ------------------------------------------------------


def test_aes_for_key_reuses_cipher_instances():
    key = secrets.token_bytes(16)
    backend.clear_caches()
    a = backend.aes_for_key(key)
    b = backend.aes_for_key(bytearray(key))
    assert a is b
    assert isinstance(a, AESFast)


def test_clear_caches_drops_instances():
    key = secrets.token_bytes(16)
    a = backend.aes_for_key(key)
    backend.clear_caches()
    b = backend.aes_for_key(key)
    assert a is not b


def test_crt_params_memoised_per_key_and_outside_equality():
    pair = rsa.generate_keypair(512)
    fresh = rsa.RSAPrivateKey(
        n=pair.private.n, d=pair.private.d, p=pair.private.p, q=pair.private.q
    )
    assert getattr(fresh, "_crt_cache", None) is None
    params = fresh._crt_params()
    assert fresh._crt_cache == params
    assert fresh._crt_params() is params
    assert fresh == pair.private  # the memo is not a dataclass field


# -- RSA differential: CRT vs plain modular exponentiation ------------------


def test_private_op_matches_plain_pow():
    pair = rsa.generate_keypair(512)
    priv = pair.private
    for _ in range(5):
        value = secrets.randbelow(priv.n)
        assert priv._private_op(value) == pow(value, priv.d, priv.n)
