"""Tests for users and the membership service provider."""

import pytest

from repro.crypto.envelope import seal
from repro.errors import AccessControlError
from repro.fabric.identity import MembershipServiceProvider


@pytest.fixture(scope="module")
def msp():
    provider = MembershipServiceProvider(key_bits=1024)
    provider.register("alice")
    provider.register("bob", organization="org2")
    return provider


def test_register_and_get(msp):
    alice = msp.get("alice")
    assert alice.user_id == "alice"
    assert alice.organization == "org1"
    assert msp.get("bob").organization == "org2"


def test_duplicate_registration_rejected(msp):
    with pytest.raises(AccessControlError):
        msp.register("alice")


def test_unknown_user_rejected(msp):
    with pytest.raises(AccessControlError):
        msp.get("carol")
    with pytest.raises(AccessControlError):
        msp.public_key_of("carol")


def test_membership_protocol(msp):
    assert "alice" in msp
    assert "carol" not in msp
    assert len(msp) >= 2


def test_sign_and_decrypt_roundtrip(msp):
    alice = msp.get("alice")
    signature = alice.sign(b"endorsement")
    alice.public_key.verify(b"endorsement", signature)
    sealed = seal(msp.public_key_of("alice"), b"for alice")
    assert alice.decrypt(sealed) == b"for alice"


def test_reissue_rotates_keypair():
    msp = MembershipServiceProvider(key_bits=1024)
    msp.register("role:doctor")
    before = msp.public_key_of("role:doctor")
    reissued = msp.reissue("role:doctor")
    after = msp.public_key_of("role:doctor")
    assert before != after
    assert reissued.user_id == "role:doctor"
    # Envelopes sealed to the old key are no longer openable.
    sealed_old = seal(before, b"old secret")
    from repro.errors import DecryptionError

    with pytest.raises(DecryptionError):
        msp.get("role:doctor").decrypt(sealed_old)
