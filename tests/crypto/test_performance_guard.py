"""Coarse performance guards on the crypto hot paths.

These are *regression tripwires*, not benchmarks (those live in
``benchmarks/test_crypto_microbench.py``): thresholds are set an order
of magnitude above the measured numbers so they never flake on a slow
CI machine, but still catch an accidental reintroduction of quadratic
behaviour (e.g. per-byte XOR loops or per-call key re-expansion) in the
envelope path.

The keygen guards count instead of timing: an identity's RSA keypair is
drawn when something seals to it or signs with it, never at
registration, so set-up that only registers identities generates none.
"""

import secrets
import time

import pytest

from repro import build_network
from repro.baseline import CrossChainDeployment
from repro.crypto import modes, rsa
from repro.crypto.envelope import seal
from repro.errors import DecryptionError
from repro.fabric.config import NetworkConfig, benchmark_config
from repro.fabric.identity import MembershipServiceProvider, User
from repro.sim import Environment


def _seal_open_seconds(key: bytes, size: int) -> float:
    payload = secrets.token_bytes(size)
    t0 = time.perf_counter()
    sealed = modes.encrypt(key, payload)
    assert modes.decrypt(key, sealed) == payload
    return time.perf_counter() - t0


def test_large_envelope_wall_clock_bound():
    """Sealing+opening 128 KiB must finish in seconds, not minutes.

    Under the seed implementation this took ~25 ms *per block*
    (8192 blocks -> minutes); the fast path does it in milliseconds.
    A 10 s bound leaves two orders of magnitude of slack.
    """
    elapsed = _seal_open_seconds(secrets.token_bytes(32), 128 * 1024)
    assert elapsed < 10.0, f"128KiB seal+open took {elapsed:.1f}s"


def test_envelope_scales_roughly_linearly():
    """8x the payload must cost far less than 64x the time (no O(n^2)).

    Both sizes stay above the numpy dispatch threshold so the same code
    path is measured; the 24x allowance absorbs timer noise and cache
    effects while still rejecting quadratic scaling.
    """
    key = secrets.token_bytes(32)
    _seal_open_seconds(key, 16 * 1024)  # warm caches + numpy
    small = min(_seal_open_seconds(key, 16 * 1024) for _ in range(3))
    large = min(_seal_open_seconds(key, 128 * 1024) for _ in range(3))
    assert large < small * 24 + 0.05, (
        f"16KiB: {small * 1e3:.2f}ms, 128KiB: {large * 1e3:.2f}ms"
    )


# -- keys on first use --------------------------------------------------------


@pytest.fixture
def keygens(monkeypatch):
    """Count every RSA prime search from here to the end of the test."""
    calls = []
    fresh = rsa._generate_fresh_keypair

    def counting(bits):
        calls.append(bits)
        return fresh(bits)

    monkeypatch.setattr(rsa, "_generate_fresh_keypair", counting)
    return calls


def test_mac_network_with_users_generates_no_keypair(keygens):
    network = build_network(benchmark_config(peer_count=4))
    for i in range(8):
        network.register_user(f"client-{i}")
    assert len(network.msp) == 12
    assert keygens == []


def test_crosschain_clients_generate_no_keypair(keygens):
    deployment = CrossChainDeployment(
        Environment(), ["a", "b", "c"], config=benchmark_config()
    )
    for i in range(5):
        deployment.register_user(f"client-{i}")
    assert keygens == []


def test_signed_network_generates_one_keypair_per_peer(keygens):
    network = build_network(NetworkConfig(peer_count=3, key_bits=512))
    assert keygens == [512] * 3
    network.register_user("alice")
    assert len(keygens) == 3


@pytest.mark.parametrize("first_use", ["public_key", "sign", "decrypt"])
def test_first_use_generates_exactly_one_keypair(keygens, first_use):
    msp = MembershipServiceProvider(key_bits=1024)
    alice = msp.register("alice")
    assert keygens == []
    if first_use == "public_key":
        alice.public_key
    elif first_use == "sign":
        alice.sign(b"endorsement")
    else:
        with pytest.raises(DecryptionError):
            alice.decrypt(b"?")
    assert keygens == [1024]
    pair = alice.keypair
    assert alice.keypair is pair and alice.public_key is pair.public
    assert msp.public_key_of("alice") is pair.public
    assert alice.decrypt(seal(pair.public, b"x")) == b"x"
    assert len(keygens) == 1


def test_reissue_draws_a_new_keypair_on_next_use(keygens):
    msp = MembershipServiceProvider(key_bits=512)
    before = msp.register("role:doctor").public_key
    reissued = msp.reissue("role:doctor")
    assert len(keygens) == 1
    assert reissued.public_key != before
    assert len(keygens) == 2


def test_equality_and_repr_generate_no_keypair(keygens):
    msp = MembershipServiceProvider(key_bits=512)
    alice, bob = msp.register("alice"), msp.register("bob", organization="org2")
    assert alice == msp.get("alice") and alice != bob
    assert len({alice, bob, msp.get("alice")}) == 2
    assert "alice" in repr(alice) and "org2" in repr(bob)
    assert User("carol") != User("carol")
    assert keygens == []
