"""Tests for network configuration, latency models and backend selection."""

import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace

import pytest

from repro import build_network
from repro.errors import ConfigError, LedgerViewError
from repro.fabric.config import (
    DEFAULT_CONFIG,
    MULTI_REGION,
    SINGLE_REGION,
    NetworkConfig,
    benchmark_config,
    resolve_backends,
)
from repro.fabric.occ import COMMIT_BACKENDS


def test_presets_are_ordered_sensibly():
    assert MULTI_REGION.client_to_peer > SINGLE_REGION.client_to_peer
    assert MULTI_REGION.orderer_to_peer > SINGLE_REGION.orderer_to_peer
    # The paper's orderers are co-located: orderer-to-orderer stays small.
    assert MULTI_REGION.orderer_to_orderer <= SINGLE_REGION.client_to_peer * 2


def test_payload_delay_scales_per_kib():
    config = NetworkConfig()
    assert config.payload_delay_ms(1024, 2.0) == 2.0
    assert config.payload_delay_ms(512, 2.0) == 1.0
    assert config.payload_delay_ms(0, 2.0) == 0.0


def test_config_is_immutable():
    with pytest.raises(FrozenInstanceError):
        DEFAULT_CONFIG.peer_count = 99  # type: ignore[misc]


def test_benchmark_config_defaults():
    config = benchmark_config()
    assert config.latency is MULTI_REGION
    assert config.real_signatures is False


def test_benchmark_config_overrides():
    config = benchmark_config(latency=SINGLE_REGION, peer_count=4)
    assert config.latency is SINGLE_REGION
    assert config.peer_count == 4
    assert config.real_signatures is False


@pytest.mark.parametrize(
    "overrides",
    [{"peer_count": 0}, {"endorsement_policy": 0}, {"endorsement_policy": 3}],
)
def test_topology_rejects_an_unsatisfiable_endorsement_policy(overrides):
    with pytest.raises(ConfigError, match=next(iter(overrides))):
        replace(DEFAULT_CONFIG, **overrides)  # __init__, so NetworkConfig(...) too
    assert NetworkConfig(peer_count=3, endorsement_policy=3).endorsement_policy == 3


def test_default_calibration_sanity():
    """The calibrated constants must keep the documented relationships:
    validation near 1 ms (≈800 TPS ceiling), contract writes a clear
    multiple, per-view cost far below per-transaction cost."""
    c = DEFAULT_CONFIG
    assert 0.5 <= c.validate_tx_ms <= 2.0
    assert c.contract_write_factor >= 2.0
    assert c.view_entry_ms < c.validate_tx_ms
    assert c.block_max_transactions >= 100
    assert c.batch_timeout_ms >= 100


# -- backend selectors: one resolver, one rule ---------------------------------

#: field, variable, default, an accepted non-default value
SELECTORS = [
    ("commit_backend", "REPRO_COMMIT_BACKEND", "reference", "occ"),
    ("orderer_backend", "REPRO_ORDERER_BACKEND", "raft", "pbft"),
    ("storage_backend", "REPRO_STORAGE_BACKEND", None, "memory"),
]
ENV_VARS = [variable for _, variable, _, _ in SELECTORS] + ["REPRO_FAULT_PLAN"]


@pytest.fixture
def clean_env(monkeypatch):
    for variable in ENV_VARS:
        monkeypatch.delenv(variable, raising=False)
    return monkeypatch


def _resolved(field, **config):
    return getattr(resolve_backends(NetworkConfig(**config)), field.split("_")[0])


@pytest.mark.parametrize("field,variable,default,other", SELECTORS)
def test_selector_default_env_and_config_precedence(
    clean_env, field, variable, default, other
):
    assert _resolved(field) == default
    clean_env.setenv(variable, other)
    assert _resolved(field) == other
    # An explicit field beats the environment, whatever the latter says.
    clean_env.setenv(variable, "no-such-backend")
    assert _resolved(field, **{field: other}) == other


@pytest.mark.parametrize("field,variable,default,other", SELECTORS)
def test_selector_names_are_case_insensitive(clean_env, field, variable, default, other):
    mixed = other.capitalize()
    assert _resolved(field, **{field: mixed}) == other
    clean_env.setenv(variable, other.upper())
    assert _resolved(field) == other


@pytest.mark.parametrize("field,variable,default,other", SELECTORS)
@pytest.mark.parametrize("via", ["config", "env"])
def test_unknown_selector_value_is_one_error_naming_variable_and_choices(
    clean_env, field, variable, default, other, via
):
    if via == "config":
        config = NetworkConfig(**{field: "turbo"})
    else:
        clean_env.setenv(variable, "turbo")
        config = NetworkConfig()
    with pytest.raises(ConfigError) as raised:
        resolve_backends(config)
    message = str(raised.value)
    assert "'turbo'" in message and field in message and variable in message
    assert repr(other) in message
    # ... and it is raised when a network is built, as a LedgerViewError.
    with pytest.raises(LedgerViewError, match=variable):
        build_network(config)


def test_storage_off_spellings_mean_no_runtime(clean_env):
    for spelling in ("none", "off", "OFF"):
        assert _resolved("storage_backend", storage_backend=spelling) is None
    assert build_network(NetworkConfig(storage_backend="none")).storage is None


def test_use_raft_pins_raft_over_the_environment_but_not_over_the_field(clean_env):
    clean_env.setenv("REPRO_ORDERER_BACKEND", "pbft")
    assert _resolved("orderer_backend", use_raft=True) == "raft"
    assert _resolved("orderer_backend", use_raft=True, orderer_backend="raft") == "raft"
    with pytest.raises(ConfigError, match="mutually exclusive"):
        resolve_backends(NetworkConfig(use_raft=True, orderer_backend="pbft"))
    with pytest.raises(ConfigError, match="mutually exclusive"):
        build_network(NetworkConfig(use_raft=True, orderer_backend="PBFT"))


def test_fault_plan_field_beats_environment_and_off_pins_fault_free(clean_env):
    assert resolve_backends(NetworkConfig()).fault_plan is None
    clean_env.setenv("REPRO_FAULT_PLAN", '{"seed": 1}')
    assert resolve_backends(NetworkConfig()).fault_plan == '{"seed": 1}'
    assert resolve_backends(NetworkConfig(fault_plan='{"seed": 2}')).fault_plan == (
        '{"seed": 2}'
    )
    assert resolve_backends(NetworkConfig(fault_plan=" Off ")).fault_plan is None


def test_network_hands_the_resolved_policy_to_its_peers(clean_env):
    clean_env.setenv("REPRO_COMMIT_BACKEND", "OCC")
    network = build_network(NetworkConfig(real_signatures=False))
    assert network.commit_backend is COMMIT_BACKENDS["occ"]
    assert all(peer.commit_backend is network.commit_backend for peer in network.peers)
    # Later changes to the environment do not reach a built network.
    clean_env.setenv("REPRO_COMMIT_BACKEND", "reference")
    assert network.reference_peer.empty_replica().commit_backend.name == "occ"


def test_import_succeeds_under_any_selector_value():
    """Selectors are read when a network is built, never at import."""
    env = {**os.environ, **{variable: "Bogus!" for variable in ENV_VARS}}
    env["REPRO_CRYPTO_BACKEND"] = env["REPRO_LEDGER_BACKEND"] = "Bogus!"
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    code = (
        "import repro, repro.bench, repro.crypto, repro.fabric.occ, repro.faults, "
        "repro.ledger, repro.serving, repro.sharding, repro.storage"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
