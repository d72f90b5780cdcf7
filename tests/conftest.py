"""Shared fixtures: fast network configurations and ready-made actors."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import build_network
from repro.crypto.symmetric import SymmetricKey
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.network import Gateway
from repro.faults import FaultEvent, FaultInjector, FaultPlan


@pytest.fixture
def fast_config() -> NetworkConfig:
    """Single-region, MAC-signature config: fast and deterministic.

    Functional tests care about behaviour, not timing, so the cheap
    signature stand-in keeps pure-Python RSA off the hot path; the
    dedicated signature tests exercise the real thing.
    """
    return NetworkConfig(
        latency=SINGLE_REGION,
        real_signatures=False,
        batch_timeout_ms=50.0,
    )


@pytest.fixture
def signed_config() -> NetworkConfig:
    """Like fast_config but with real RSA endorsement signatures."""
    return NetworkConfig(
        latency=SINGLE_REGION,
        real_signatures=True,
        batch_timeout_ms=50.0,
    )


@pytest.fixture
def network(fast_config):
    """A ready network with all standard chaincodes installed."""
    return build_network(fast_config)


@pytest.fixture
def owner_gateway(network):
    """Gateway for a registered view-owner identity."""
    return Gateway(network, network.register_user("owner"))


@pytest.fixture
def reader_gateway(network):
    """Gateway for a registered reader identity."""
    return Gateway(network, network.register_user("reader"))


@pytest.fixture
def outage():
    """``outage(network, kind, at_ms=0.0, for_ms=None)``: attach a plan
    whose one event is a whole-chain outage (``crash_chain`` or
    ``partition_chain``) to ``network`` and return its injector, whose
    ``heal()`` ends the outage.  At ``at_ms=0`` the event has fired
    when this returns.  The plan has no client retry."""

    def attach(network, kind, at_ms=0.0, for_ms=None):
        plan = FaultPlan(retry=None, events=(FaultEvent(kind, at_ms, for_ms),))
        injector = FaultInjector(network, plan)
        if at_ms == 0.0:
            network.env.run(until=network.env.now)
        return injector

    return attach


@pytest.fixture
def encryptions(monkeypatch):
    """Key material of every ``SymmetricKey.encrypt`` call from here on
    (count a view key's entries with ``.count(record.key.material)``)."""
    calls = []
    real = SymmetricKey.encrypt

    def counting(self, plaintext):
        calls.append(self.material)
        return real(self, plaintext)

    monkeypatch.setattr(SymmetricKey, "encrypt", counting)
    return calls


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _script(relative: str):
    """A script under ``benchmarks/`` (no package), loaded by path."""
    path = BENCHMARKS / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def drift():
    """``check_e2e_drift.py``: the goldens, ``field_diff``, ``pin_diff``, ``main``."""
    return _script("check_e2e_drift.py")


@pytest.fixture(scope="session")
def ab(drift):
    sys.modules.setdefault("check_e2e_drift", drift)  # ab.py imports it by name
    return _script("ab.py")


@pytest.fixture(scope="session")
def e2e_metrics():
    """The frozen e2e benchmark's ``metrics.py`` (it imports nothing of ``repro``)."""
    return _script("e2e/metrics.py")


@pytest.fixture
def fresh_interpreter():
    """``run(script) -> stdout`` in a new interpreter with no ``REPRO_*``
    variable set — for asserting what a code path leaves in
    ``sys.modules``, which this process has long since polluted."""

    def run(script: str) -> str:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(Path(repro.__file__).parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    return run
