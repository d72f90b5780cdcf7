"""Shared fixtures for the sharding suite."""

import itertools
import random
import secrets as secrets_module

import pytest

from repro.ledger import transaction as transaction_module


@pytest.fixture
def rearm(monkeypatch):
    """Pin all randomness and the tid sequence, re-armable per leg.

    The differential tests run the same workload against different
    deployments (unsharded vs sharded, commit backends) and
    assert byte-identity; each leg re-arms so every leg draws the
    identical key material, salts, and transaction ids.
    """

    def arm():
        rng = random.Random(0x5A4D)
        monkeypatch.setattr(
            secrets_module, "token_bytes", lambda n=32: rng.randbytes(n)
        )
        monkeypatch.setattr(secrets_module, "randbits", rng.getrandbits)
        monkeypatch.setattr(secrets_module, "randbelow", lambda n: rng.randrange(n))
        monkeypatch.setattr(
            transaction_module, "_tid_counter", itertools.count(9_000_000)
        )

    return arm
