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
The view-query guard counts too: a revocable view encrypts each entry
once per view key, not once per query, and a query seals nothing.  And
the import guard: sealing never imports numpy (AES runs on Python ints
alone).
"""

import os
import secrets
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro import build_network
from repro.baseline import CrossChainDeployment
from repro.crypto import modes, rsa
from repro.crypto.envelope import seal
from repro.errors import DecryptionError
from repro.fabric.config import NetworkConfig, benchmark_config
from repro.fabric.identity import MembershipServiceProvider, User
from repro.fabric.network import Gateway
from repro.sim import Environment
from repro.views.encryption_based import EncryptionBasedManager
from repro.views.manager import ViewInvocation
from repro.views.predicates import Everything
from repro.views.types import ViewMode


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

    Both sizes span many full kernel chunks, so the same code path is
    measured; the 24x allowance absorbs timer noise and cache effects
    while still rejecting quadratic scaling.
    """
    key = secrets.token_bytes(32)
    _seal_open_seconds(key, 16 * 1024)  # warm caches
    small = min(_seal_open_seconds(key, 16 * 1024) for _ in range(3))
    large = min(_seal_open_seconds(key, 128 * 1024) for _ in range(3))
    assert large < small * 24 + 0.05, (
        f"16KiB: {small * 1e3:.2f}ms, 128KiB: {large * 1e3:.2f}ms"
    )


def test_sealing_and_an_ei_request_never_import_numpy():
    """A fresh interpreter seals and opens a 70 KB envelope (well past one
    kernel chunk) and runs one EI request, and still has no numpy."""
    script = textwrap.dedent(
        """
        import secrets, sys
        from repro import EncryptionBasedManager, Gateway, ViewMode, build_network
        from repro.crypto import modes
        from repro.views.predicates import Everything

        key = secrets.token_bytes(32)
        payload = secrets.token_bytes(70_000)
        assert modes.decrypt(key, modes.encrypt(key, payload)) == payload
        network = build_network()
        manager = EncryptionBasedManager(Gateway(network, network.register_user("owner")))
        manager.create_view("all", Everything(), ViewMode.IRREVOCABLE)
        outcome = manager.invoke_with_secret(
            fn="create_item",
            args={"item": "i0", "owner": "W1"},
            public={"item": "i0"},
            secret=b"manifest",
        )
        assert outcome.views == ["all"], outcome.views
        print("numpy" in sys.modules)
        """
    )
    src = Path(__file__).resolve().parents[2] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


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


# -- view queries: one encryption per entry per view key ----------------------


def test_view_query_encrypts_each_entry_once_per_view_key(encryptions, monkeypatch):
    """A 32-tid ER query: 32 entry encryptions cold, 0 warm, 32 after a
    revocation rotates ``K_V`` — and no other cipher call: the reply is
    the entries themselves, sealed to nobody."""
    network = build_network(benchmark_config())
    manager = EncryptionBasedManager(Gateway(network, network.register_user("owner")))
    record = manager.create_view("all", Everything(), ViewMode.REVOCABLE)
    manager.invoke_many(
        [
            ViewInvocation(
                "create_item",
                {"item": f"i{i}", "owner": "W1"},
                {"item": f"i{i}"},
                b"manifest-%d" % i,
            )
            for i in range(32)
        ]
    )
    for reader in ("bob", "carol"):
        network.register_user(reader)
        manager.grant_access("all", reader)
    rsa_calls = []

    def counted(real):
        def counting(self, *args):
            rsa_calls.append(real.__name__)
            return real(self, *args)

        return counting

    for cls, attrs in (
        (rsa.RSAPublicKey, ("encrypt", "verify")),
        (rsa.RSAPrivateKey, ("decrypt", "sign")),
    ):
        for attr in attrs:
            monkeypatch.setattr(cls, attr, counted(getattr(cls, attr)))

    def entry_encryptions() -> int:
        before, rsa_before = len(encryptions), len(rsa_calls)
        manager.query_view("all", "bob")
        served = encryptions[before:]
        assert served == [record.key.material] * len(served)  # K_V only
        assert len(rsa_calls) == rsa_before
        return len(served)

    assert len(record.tids) == 32
    assert entry_encryptions() == 32  # cold
    assert entry_encryptions() == 0  # warm: no cipher call at all
    manager.revoke_access("all", "carol")
    assert entry_encryptions() == 32  # the new K_V encrypts every entry again
    assert entry_encryptions() == 0
