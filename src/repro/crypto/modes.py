"""Modes of operation: CTR keystream and an authenticated envelope.

The paper's methods encrypt variable-length secret parts and key lists
with a symmetric key (``enc(., K)``).  We realise ``enc`` as
**AES-CTR + HMAC-SHA256 in encrypt-then-MAC composition** — an
authenticated encryption scheme, so a reader can always detect
tampering of served view data (paper §4.7, case 2).

Wire format of a sealed message::

    nonce (16) || ciphertext (len(plaintext)) || tag (32)

The MAC covers ``nonce || ciphertext`` under a MAC subkey derived from
the master key, keeping encryption and authentication keys independent.

Hot-path notes
--------------
Readers decrypt many view entries under the same view key ``K_V``, so
two caches sit in front of the per-call work: subkey derivation is
LRU-cached per master key (:func:`_derive_subkeys`), and the expanded
AES key schedule is reused via :func:`repro.crypto.backend.aes_for_key`.
Keystream generation is batched — all counter blocks of a message go
through :class:`~repro.crypto.aes.AESFast`'s lane-parallel kernel in one
call — and the plaintext/keystream XOR runs as a single big-int
operation instead of a per-byte loop.
:func:`ctr_xor_reference` is the block-at-a-time loop over
:class:`~repro.crypto.aes.AES` that the differential tests and the
crypto microbench compare against.
"""

from __future__ import annotations

import secrets
from functools import lru_cache

from repro.crypto import backend as _backend
from repro.crypto.aes import AES, BLOCK_SIZE, AESFast
from repro.crypto.hashing import hmac_sha256, sha256
from repro.errors import DecryptionError

NONCE_SIZE = BLOCK_SIZE
TAG_SIZE = 32

#: Fixed overhead added to every ciphertext (nonce + tag).
CIPHERTEXT_OVERHEAD = NONCE_SIZE + TAG_SIZE

#: Master keys whose derived subkeys are kept around (a view workload
#: cycles through per-transaction keys plus a handful of view keys).
SUBKEY_CACHE_SIZE = 4096


@lru_cache(maxsize=SUBKEY_CACHE_SIZE)
def _derive_subkeys(key: bytes) -> tuple[bytes, bytes]:
    """Split a master key into independent encryption and MAC subkeys.

    ``seal``/``open`` on the same master key previously re-derived (and
    re-expanded) the subkeys on every invocation; the LRU makes repeat
    calls — the common case for view keys — a dict hit.
    """
    enc_key = sha256(b"ledgerview/enc" + key)[: len(key)]
    mac_key = sha256(b"ledgerview/mac" + key)
    return enc_key, mac_key


def _ctr_keystream_xor(cipher: AESFast, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with the AES-CTR keystream for ``nonce``.

    The 16-byte nonce is treated as a big-endian counter block and
    incremented per block, as in NIST SP 800-38A.  All keystream blocks
    are generated in one call; the final XOR is one big-int operation
    over the whole message.
    """
    length = len(data)
    if length == 0:
        return b""
    counter = int.from_bytes(nonce, "big")
    nblocks = (length + BLOCK_SIZE - 1) // BLOCK_SIZE
    keystream = cipher.ctr_keystream(counter, nblocks)
    mask = int.from_bytes(keystream[:length], "big")
    return (int.from_bytes(data, "big") ^ mask).to_bytes(length, "big")


def ctr_xor_reference(enc_key: bytes, nonce: bytes, data: bytes) -> bytes:
    """The oracle for :func:`_ctr_keystream_xor`: a fresh reference
    :class:`AES`, one block at a time with a per-byte XOR, preserved
    verbatim from the seed implementation.  Nothing in the library
    calls it."""
    cipher = AES(enc_key)
    counter = int.from_bytes(nonce, "big")
    out = bytearray(len(data))
    for offset in range(0, len(data), BLOCK_SIZE):
        block = cipher.encrypt_block(counter.to_bytes(BLOCK_SIZE, "big"))
        counter = (counter + 1) % (1 << 128)
        chunk = data[offset : offset + BLOCK_SIZE]
        out[offset : offset + len(chunk)] = bytes(
            a ^ b for a, b in zip(chunk, block)
        )
    return bytes(out)


def encrypt(key: bytes, plaintext: bytes, nonce: bytes | None = None) -> bytes:
    """Authenticated-encrypt ``plaintext`` under ``key``.

    A fresh random nonce is drawn unless one is supplied (supplying a
    nonce is only intended for deterministic tests); any 16-byte buffer
    will do, and the envelope is always ``bytes``.
    """
    if nonce is None:
        nonce = secrets.token_bytes(NONCE_SIZE)
    else:  # any buffer; through memoryview, so an int is refused, not zeros
        nonce = bytes(memoryview(nonce))
    if len(nonce) != NONCE_SIZE:
        raise ValueError(f"nonce must be {NONCE_SIZE} bytes")
    enc_key, mac_key = _derive_subkeys(bytes(key))
    cipher = _backend.aes_for_key(enc_key)
    ciphertext = _ctr_keystream_xor(cipher, nonce, bytes(plaintext))
    tag = hmac_sha256(mac_key, nonce + ciphertext)
    return nonce + ciphertext + tag


def decrypt(key: bytes, sealed: bytes) -> bytes:
    """Verify and decrypt a message produced by :func:`encrypt`.

    Raises
    ------
    DecryptionError
        If the message is malformed or the authentication tag does not
        verify (wrong key or tampered ciphertext).
    """
    sealed = bytes(sealed)
    if len(sealed) < CIPHERTEXT_OVERHEAD:
        raise DecryptionError("ciphertext too short to contain nonce and tag")
    nonce = sealed[:NONCE_SIZE]
    tag = sealed[-TAG_SIZE:]
    ciphertext = sealed[NONCE_SIZE:-TAG_SIZE]
    enc_key, mac_key = _derive_subkeys(bytes(key))
    expected_tag = hmac_sha256(mac_key, nonce + ciphertext)
    if not secrets.compare_digest(tag, expected_tag):
        raise DecryptionError("authentication tag mismatch (wrong key or tampering)")
    return _ctr_keystream_xor(_backend.aes_for_key(enc_key), nonce, ciphertext)
