"""Tests for SHA-256 helpers, salted hashing, and from-scratch HMAC."""

import hashlib
import hmac as stdlib_hmac

import pytest

from repro.crypto.hashing import (
    hmac_sha256,
    random_salt,
    salted_hash,
    sha256,
    sha256_hex,
    verify_salted_hash,
)


def test_sha256_matches_stdlib():
    for message in (b"", b"abc", b"x" * 1000):
        assert sha256(message) == hashlib.sha256(message).digest()
        assert sha256_hex(message) == hashlib.sha256(message).hexdigest()


def test_sha256_rejects_str():
    with pytest.raises(TypeError):
        sha256("not bytes")  # type: ignore[arg-type]


def test_random_salt_properties():
    salts = {random_salt() for _ in range(50)}
    assert len(salts) == 50  # no collisions in 50 draws
    assert all(len(s) == 16 for s in salts)
    assert len(random_salt(32)) == 32


def test_random_salt_rejects_nonpositive():
    with pytest.raises(ValueError):
        random_salt(0)


def test_salted_hash_is_hash_of_concatenation():
    secret, salt = b"price=100", b"\x01\x02"
    assert salted_hash(secret, salt) == hashlib.sha256(secret + salt).digest()


def test_salted_hash_requires_salt():
    with pytest.raises(ValueError):
        salted_hash(b"secret", b"")


def test_same_secret_different_salts_hides_equality():
    """The dictionary-attack defence of §4.3: equal secrets are not
    linkable across transactions."""
    secret = b"common-value"
    assert salted_hash(secret, random_salt()) != salted_hash(secret, random_salt())


def test_verify_salted_hash():
    salt = random_salt()
    digest = salted_hash(b"data", salt)
    assert verify_salted_hash(b"data", salt, digest)
    assert not verify_salted_hash(b"other", salt, digest)
    assert not verify_salted_hash(b"data", random_salt(), digest)


@pytest.mark.parametrize(
    "key,message",
    [
        (b"", b""),
        (b"k", b"m"),
        (b"key", b"message"),
        (b"k" * 63, b"m"),
        (b"k" * 64, b"m"),  # exactly the block size
        (b"k" * 65, b"m"),  # one past it: hashed first
        (b"k" * 100, b"m" * 500),
        (bytes(range(200)), bytes(range(256))),  # every pad-table entry
    ],
)
def test_hmac_matches_stdlib(key, message):
    expected = stdlib_hmac.new(key, message, hashlib.sha256).digest()
    assert hmac_sha256(key, message) == expected

