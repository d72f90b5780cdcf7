"""Hashing primitives: SHA-256 helpers, salted hashing, and HMAC.

The paper stores ``h(t[S] || s)`` — the hash of a transaction's secret
part concatenated with a random salt — on the ledger for the hash-based
view methods (HI, HR).  The salt defeats dictionary attacks when the same
secret value appears in several transactions (paper §4.3).

SHA-256 itself comes from :mod:`hashlib` (it is part of the Python
standard library, not a third-party dependency); HMAC is implemented
from scratch per RFC 2104 so the envelope construction in
:mod:`repro.crypto.modes` does not rely on :mod:`hmac`.
"""

from __future__ import annotations

import hashlib
import secrets

SHA256_DIGEST_SIZE = 32
SHA256_BLOCK_SIZE = 64

DEFAULT_SALT_SIZE = 16

#: Byte-wise ``xor 0x36`` / ``xor 0x5C`` as translation tables: the HMAC
#: pads of a key are one ``bytes.translate`` each.
_IPAD_TABLE = bytes(b ^ 0x36 for b in range(256))
_OPAD_TABLE = bytes(b ^ 0x5C for b in range(256))


def sha256(data: bytes) -> bytes:
    """Return the 32-byte SHA-256 digest of ``data``.

    Accepts ``bytes``, ``bytearray`` and ``memoryview`` directly —
    :func:`hashlib.sha256` consumes any buffer, so no intermediate
    ``bytes`` copy is made (this sits under every salted hash and HMAC
    call, where the copy was measurable).
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"sha256 expects bytes, got {type(data).__name__}")
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    """Return the SHA-256 digest of ``data`` as a 64-char hex string."""
    return sha256(data).hex()


def random_salt(size: int = DEFAULT_SALT_SIZE) -> bytes:
    """Return ``size`` cryptographically random bytes for use as a salt."""
    if size <= 0:
        raise ValueError("salt size must be positive")
    return secrets.token_bytes(size)


def salted_hash(secret: bytes, salt: bytes) -> bytes:
    """Return ``h(secret || salt)`` as used for on-chain concealment.

    This is the value stored on the ledger in place of the secret part
    for the hash-based view methods (paper §4.3-4.4).
    """
    if not salt:
        raise ValueError("salt must be non-empty (dictionary-attack protection)")
    return sha256(bytes(secret) + bytes(salt))


def verify_salted_hash(secret: bytes, salt: bytes, expected: bytes) -> bool:
    """Check that ``h(secret || salt)`` equals ``expected``.

    Used by view readers to validate secrets served by a view owner
    against the digests committed on the ledger.  Constant-time
    comparison avoids leaking prefix information.
    """
    return secrets.compare_digest(salted_hash(secret, salt), bytes(expected))


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Compute HMAC-SHA256 per RFC 2104 (implemented from scratch).

    ``HMAC(K, m) = H((K' xor opad) || H((K' xor ipad) || m))`` where
    ``K'`` is the key padded (or hashed, if longer than the block size)
    to the 64-byte SHA-256 block size.
    """
    key = bytes(key)
    if len(key) > SHA256_BLOCK_SIZE:
        key = sha256(key)
    key = key.ljust(SHA256_BLOCK_SIZE, b"\x00")
    inner_hash = hashlib.sha256(key.translate(_IPAD_TABLE))
    inner_hash.update(message)
    return sha256(key.translate(_OPAD_TABLE) + inner_hash.digest())
