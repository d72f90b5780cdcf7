"""Tests for the top-level package surface."""

import re
from pathlib import Path

import pytest

import repro
import repro.crypto
import repro.ledger
from repro import build_network
from repro.errors import (
    AccessControlError,
    AccessDeniedError,
    ChaincodeError,
    CryptoError,
    DecryptionError,
    LedgerError,
    LedgerViewError,
    MerkleProofError,
    RevocationError,
    SignatureError,
    VerificationError,
)


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version_is_set():
    assert repro.__version__


def test_build_network_installs_standard_contracts(fast_config):
    network = build_network(fast_config)
    for chaincode in ("supply", "notary", "viewstorage", "txlist", "rbac"):
        assert chaincode in network.registry, chaincode


def test_build_network_without_contracts(fast_config):
    network = build_network(fast_config, install_standard_contracts=False)
    assert network.registry.names() == []


def test_build_network_shares_environment(fast_config):
    from repro.sim import Environment

    env = Environment()
    a = build_network(fast_config, env=env, chain_name="a")
    b = build_network(fast_config, env=env, chain_name="b")
    assert a.env is b.env


def test_error_hierarchy():
    # Everything under one root.
    for error in (
        CryptoError,
        LedgerError,
        AccessControlError,
        VerificationError,
        RevocationError,
    ):
        assert issubclass(error, LedgerViewError)
    # Crypto family.
    for error in (DecryptionError, SignatureError, MerkleProofError):
        assert issubclass(error, CryptoError)
    # Ledger family.
    assert issubclass(ChaincodeError, LedgerError)
    # Access-control family.
    for error in (AccessDeniedError, RevocationError, VerificationError):
        assert issubclass(error, AccessControlError)


def test_fabric_surface_is_pinned():
    """The simulator's exports: channels are not modelled (the paper's
    channels-versus-views argument is prose), and nothing else is."""
    import repro.fabric

    assert sorted(repro.fabric.__all__) == [
        "Chaincode",
        "FabricNetwork",
        "Gateway",
        "LatencyModel",
        "MULTI_REGION",
        "MembershipServiceProvider",
        "NetworkConfig",
        "PrivateDataManager",
        "SINGLE_REGION",
        "TxContext",
        "User",
    ]


def test_catching_the_root_catches_everything(network):
    user = network.register_user("alice")
    with pytest.raises(LedgerViewError):
        network.invoke_sync(user, "no-such-chaincode", "fn")


def test_knob_surface_is_pinned():
    """Every ``REPRO_*`` environment variable the source reads, and no
    executor pools: a new knob needs a deliberate edit here."""
    sources = {
        path: path.read_text() for path in Path(repro.__file__).parent.rglob("*.py")
    }
    env_vars = {
        name for text in sources.values() for name in re.findall(r"REPRO_[A-Z_]+", text)
    }
    assert env_vars == {
        "REPRO_COMMIT_BACKEND",
        "REPRO_ORDERER_BACKEND",
        "REPRO_STORAGE_BACKEND",
        "REPRO_FAULT_PLAN",
        "REPRO_BENCH_SCALE",
    }
    pooled = [
        str(path) for path, text in sources.items() if "concurrent.futures" in text
    ]
    assert pooled == []
    # No process-global backend switch: the selectors above are resolved
    # per network by ``repro.fabric.config.resolve_backends``.
    switches = {"available_backends", "get_backend", "set_backend", "use_backend"}
    for package in (repro.crypto, repro.ledger):
        assert not switches & set(package.__all__), package.__name__
        assert not any(hasattr(package, name) for name in switches), package.__name__
