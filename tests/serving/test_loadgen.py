"""The open-loop Poisson generator: determinism, rate, mixes."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.serving.loadgen import (
    OpenLoopConfig,
    PoissonLoadGenerator,
    ServingMix,
    counter_builder,
    view_mix_builder,
)


def _schedule(**overrides):
    builder = overrides.pop("builder", None) or counter_builder()
    params = dict(offered_tps=200.0, requests=400, sessions=4, seed=13)
    params.update(overrides)
    config = OpenLoopConfig(**params)
    return PoissonLoadGenerator(config, builder).schedule()


def test_same_seed_same_schedule():
    a = _schedule()
    b = _schedule()
    assert [(r.arrival_ms, r.kind, r.payload) for r in a] == [
        (r.arrival_ms, r.kind, r.payload) for r in b
    ]


def test_different_seed_different_arrivals():
    a = _schedule()
    b = _schedule(seed=14)
    assert [r.arrival_ms for r in a] != [r.arrival_ms for r in b]


def test_mean_gap_tracks_offered_rate():
    requests = _schedule(offered_tps=500.0, requests=2000)
    arrivals = [r.arrival_ms for r in requests]
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    mean_gap = sum(gaps) / len(gaps)
    # Poisson at 500 tps -> 2 ms mean inter-arrival, +-15% at n=2000.
    assert mean_gap == pytest.approx(2.0, rel=0.15)


def test_arrivals_strictly_increase():
    arrivals = [r.arrival_ms for r in _schedule()]
    assert all(b > a for a, b in zip(arrivals, arrivals[1:]))


def test_round_robin_sessions_preserve_order():
    config = OpenLoopConfig(offered_tps=100.0, requests=40, sessions=4, seed=3)
    requests = PoissonLoadGenerator(config, counter_builder()).schedule()
    assert [r.session for r in requests] == [i % 4 for i in range(40)]
    for session in range(4):
        indexes = [r.index for r in requests if r.session == session]
        assert len(indexes) == 10
        assert indexes == sorted(indexes)


def test_mix_fractions_roughly_respected():
    mix = ServingMix(invoke=0.6, grant=0.2, revoke=0.1, audit=0.1)
    requests = _schedule(
        requests=2000,
        mix=mix,
        builder=view_mix_builder("w1", ["alice", "bob"]),
    )
    counts = {}
    for request in requests:
        counts[request.kind] = counts.get(request.kind, 0) + 1
    assert counts["invoke"] == pytest.approx(1200, rel=0.15)
    assert counts["grant"] == pytest.approx(400, rel=0.25)


def test_mix_validation():
    with pytest.raises(WorkloadError):
        ServingMix(invoke=-0.1)
    with pytest.raises(WorkloadError):
        ServingMix(invoke=0.0, grant=0.0, revoke=0.0, audit=0.0)
    cumulative = ServingMix(invoke=1.0, audit=1.0).cumulative()
    assert cumulative[-1][1] == 1.0


def test_config_validation():
    with pytest.raises(WorkloadError):
        OpenLoopConfig(offered_tps=0.0, requests=10)
    with pytest.raises(WorkloadError):
        OpenLoopConfig(offered_tps=10.0, requests=-1)
    with pytest.raises(WorkloadError):
        OpenLoopConfig(offered_tps=10.0, requests=10, sessions=0)


def test_counter_builder_keys():
    hot = _schedule(builder=counter_builder(conflict_rate=1.0), requests=50)
    assert all(r.payload["key"].startswith("hot-") for r in hot)
    cold = _schedule(builder=counter_builder(conflict_rate=0.0), requests=50)
    keys = [r.payload["key"] for r in cold]
    assert all(k.startswith("cold-") for k in keys)
    assert len(set(keys)) == 50  # cold keys are request-unique


def test_counter_builder_rejects_non_invoke():
    build = counter_builder()
    import random

    with pytest.raises(WorkloadError):
        build(0, "grant", random.Random(0))


def test_view_mix_builder_payload_shapes():
    build = view_mix_builder("w1", ["alice"])
    import random

    rng = random.Random(0)
    invoke = build(0, "invoke", rng)
    assert invoke["fn"] == "create_item"
    assert invoke["public"]["item"] == invoke["args"]["item"]
    grant = build(1, "grant", rng)
    assert grant == {"view": "w1", "principal": "alice"}
    with pytest.raises(WorkloadError):
        view_mix_builder("w1", [])
