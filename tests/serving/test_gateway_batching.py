"""Micro-batch cutting: size trigger, linger trigger, ingress phase."""

from __future__ import annotations

import pytest

from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.serving import (
    AdmissionConfig,
    NetworkTarget,
    OpenLoopConfig,
    counter_builder,
)
from repro.serving.loadgen import run_open_loop
from repro.sim.core import Environment
from repro.workload.zipf import CounterContract

from tests.serving.test_admission import StubTarget, _drive, _requests

from repro import build_network
from repro.serving.gateway import AsyncGateway


def _gateway(env, target, **admission):
    params = dict(
        max_inflight=64,
        shed_high=1000,
        shed_low=500,
        max_batch=4,
        linger_ms=5.0,
    )
    params.update(admission)
    gateway = AsyncGateway(target, AdmissionConfig(**params))
    target.gateway = gateway
    return gateway


def test_size_trigger_cuts_full_batches():
    env = Environment()
    target = StubTarget(env)
    gateway = _gateway(env, target, max_batch=4)
    requests = _requests(8)
    _drive(gateway, [(0.0, r) for r in requests])
    assert target.batch_sizes == [4, 4]
    # A full batch goes out the moment it forms, not after the linger.
    assert requests[0].dispatched_ms == 0.0


def test_linger_trigger_flushes_partial_batch():
    env = Environment()
    target = StubTarget(env)
    gateway = _gateway(env, target, max_batch=32, linger_ms=5.0)
    requests = _requests(2)
    _drive(gateway, [(0.0, r) for r in requests])
    assert target.batch_sizes == [2]
    assert requests[0].dispatched_ms == pytest.approx(5.0)


def test_lingering_batch_tops_up_from_late_arrivals():
    env = Environment()
    target = StubTarget(env)
    gateway = _gateway(env, target, max_batch=32, linger_ms=10.0)
    first, second = _requests(2)
    second.arrival_ms = 4.0
    _drive(gateway, [(0.0, first), (4.0, second)])
    # The late arrival joins the open batch instead of starting its own.
    assert target.batch_sizes == [2]
    assert first.dispatched_ms == pytest.approx(10.0)


def test_batch_outcomes_map_back_positionally():
    env = Environment()

    class AlternatingTarget(StubTarget):
        def dispatch(self, batch, complete):
            self.batch_sizes.append(len(batch))

            def served(_fired):
                for i, request in enumerate(batch):
                    complete(request, "committed" if i % 2 == 0 else "aborted", i)

            self.env.timeout(self.service_ms).callbacks.append(served)

    target = AlternatingTarget(env)
    gateway = _gateway(env, target, max_batch=4, linger_ms=0.0)
    requests = _requests(4)
    _drive(gateway, [(0.0, r) for r in requests])
    assert [r.outcome for r in requests] == [
        "committed",
        "aborted",
        "committed",
        "aborted",
    ]
    assert [r.detail for r in requests] == [0, 1, 2, 3]


def test_ingress_phase_is_attributed():
    env = Environment()
    target = StubTarget(env)
    gateway = _gateway(env, target)
    requests = _requests(6)
    _drive(gateway, [(0.0, r) for r in requests])
    assert target.phase_wall.seconds.get("ingress", 0.0) > 0.0


def test_overload_run_terminates():
    """Regression: sub-epsilon linger remainders must not freeze the
    simulated clock (the drain loop once spun on zero-advance timeouts)."""
    network = build_network(
        NetworkConfig(
            latency=SINGLE_REGION,
            real_signatures=False,
            batch_timeout_ms=15.0,
        )
    )
    network.install_chaincode(CounterContract())
    target = NetworkTarget(network, network.register_user("client"))
    metrics, requests = run_open_loop(
        target,
        OpenLoopConfig(offered_tps=800.0, requests=200, sessions=8, seed=5),
        counter_builder(),
        admission=AdmissionConfig(
            max_inflight=128,
            shed_high=288,
            shed_low=192,
            max_batch=32,
            linger_ms=2.0,
        ),
    )
    assert all(r.outcome is not None for r in requests)
    assert metrics.completed + metrics.shed == 200
