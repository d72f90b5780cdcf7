"""Hybrid public-key envelopes for key dissemination.

The paper repeatedly disseminates a symmetric key to a set of users by
encrypting it with each user's public key (``enc(K_V, PubK_u)`` —
§4.1-4.4, §4.6).  For small payloads (keys) a single RSA-OAEP block
suffices; for larger payloads a hybrid scheme is standard: encrypt the
payload under a fresh session key and seal the session key with RSA.
:func:`seal` handles both transparently.

Wire format::

    mode (1)  = 0x01 direct RSA | 0x02 hybrid
    if direct:  rsa_block
    if hybrid:  rsa_block (sealed session key) || symmetric envelope
"""

from __future__ import annotations

from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.crypto.symmetric import SymmetricKey
from repro.errors import DecryptionError

_MODE_DIRECT = b"\x01"
_MODE_HYBRID = b"\x02"


def seal(public_key: RSAPublicKey, plaintext: bytes) -> bytes:
    """Encrypt ``plaintext`` so only the private-key holder can read it."""
    plaintext = bytes(plaintext)
    if len(plaintext) <= public_key.max_message_size:
        return _MODE_DIRECT + public_key.encrypt(plaintext)
    session = SymmetricKey.generate(32)
    sealed_key = public_key.encrypt(session.to_bytes())
    return _MODE_HYBRID + sealed_key + session.encrypt(plaintext)


def seal_many(
    public_keys: list[RSAPublicKey], plaintext: bytes
) -> list[bytes]:
    """Seal one payload for several recipients, encrypting it only once.

    The paper repeatedly disseminates the same material (a view key) to
    a *set* of users.  Sealing per-recipient
    would symmetric-encrypt the payload N times; here large payloads are
    encrypted once under a single session key and only the session key
    is RSA-sealed per recipient.  Small payloads that fit a direct RSA
    block are sealed directly per recipient, exactly like :func:`seal`.

    Returns one envelope per public key, each independently openable
    with :func:`open_sealed`.
    """
    plaintext = bytes(plaintext)
    if not public_keys:
        return []
    if all(len(plaintext) <= pk.max_message_size for pk in public_keys):
        return [_MODE_DIRECT + pk.encrypt(plaintext) for pk in public_keys]
    session = SymmetricKey.generate(32)
    body = session.encrypt(plaintext)
    return [
        _MODE_HYBRID + pk.encrypt(session.to_bytes()) + body
        for pk in public_keys
    ]


def open_sealed(private_key: RSAPrivateKey, envelope: bytes) -> bytes:
    """Decrypt an envelope produced by :func:`seal`.

    Raises
    ------
    DecryptionError
        If the envelope is malformed or was sealed for a different key.
    """
    envelope = bytes(envelope)
    if not envelope:
        raise DecryptionError("empty envelope")
    mode, body = envelope[:1], envelope[1:]
    if mode == _MODE_DIRECT:
        return private_key.decrypt(body)
    if mode == _MODE_HYBRID:
        k = private_key.byte_size
        if len(body) <= k:
            raise DecryptionError("hybrid envelope truncated")
        session = SymmetricKey.from_bytes(private_key.decrypt(body[:k]))
        return session.decrypt(body[k:])
    raise DecryptionError(f"unknown envelope mode {mode!r}")
