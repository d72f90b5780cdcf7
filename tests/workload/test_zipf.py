"""The skewed-contention workload: sampler, contract, and trace."""

from __future__ import annotations

import pytest

from repro.errors import ChaincodeError, WorkloadError
from repro.fabric.chaincode import TxContext
from repro.ledger.statedb import StateDatabase, Version
from repro.workload.zipf import (
    BumpRequest,
    ContentionWorkload,
    CounterContract,
    ZipfSampler,
)

# -- sampler -------------------------------------------------------------------


def _draws(sampler, count):
    return [sampler.sample() for _ in range(count)]


def test_sampler_is_deterministic_per_seed():
    a = _draws(ZipfSampler(8, 1.2, seed=3), 200)
    b = _draws(ZipfSampler(8, 1.2, seed=3), 200)
    c = _draws(ZipfSampler(8, 1.2, seed=4), 200)
    assert a == b
    assert a != c


def test_sampler_ranks_stay_in_range():
    draws = _draws(ZipfSampler(5, 1.2, seed=1), 500)
    assert set(draws) <= set(range(1, 6))
    assert min(draws) == 1  # the hottest rank appears


def _frequencies(n, s):
    """Rank frequencies over 4,000 seeded draws."""
    draws = _draws(ZipfSampler(n, s, seed=5), 4000)
    return [draws.count(rank) / len(draws) for rank in range(1, n + 1)]


def test_probabilities_sum_to_one_and_decrease():
    """The draws follow ``rank**-s`` normalised, to within 0.03."""
    weights = [rank**-1.2 for rank in range(1, 9)]
    expected = [weight / sum(weights) for weight in weights]
    assert _frequencies(8, 1.2) == pytest.approx(expected, abs=0.03)


def test_zero_skew_is_uniform():
    assert _frequencies(4, 0.0) == pytest.approx([0.25] * 4, abs=0.03)


def test_more_skew_concentrates_the_head():
    assert _frequencies(8, 1.2)[0] > _frequencies(8, 0.5)[0] + 0.1


def test_sampler_rejects_bad_parameters():
    with pytest.raises(WorkloadError):
        ZipfSampler(0, 1.0)
    with pytest.raises(WorkloadError):
        ZipfSampler(4, -0.1)


# -- counter contract ----------------------------------------------------------


def _ctx(statedb, tid="t1"):
    return TxContext(
        chaincode="counter", statedb=statedb, tid=tid, creator="alice"
    )


def test_bump_reads_then_writes_with_stable_shape():
    statedb = StateDatabase()
    contract = CounterContract()
    ctx = _ctx(statedb)
    response = contract.invoke(ctx, "bump", {"key": "k", "amount": 3})
    assert response == {"key": "k", "count": 3}
    # Read-modify-write: the read is version-tracked (None = absent),
    # which is what makes concurrent bumps MVCC-conflict.
    assert ctx.read_set == {"counter~k": None}
    assert ctx.write_set == {"counter~k": 3}


def test_bump_response_shape_is_stable_across_prior_values():
    statedb = StateDatabase()
    statedb.put("counter~k", 41, Version(1, 0))
    contract = CounterContract()
    bumped = contract.invoke(_ctx(statedb), "bump", {"key": "k"})
    assert bumped == {"key": "k", "count": 42}
    fresh = contract.invoke(_ctx(statedb), "bump", {"key": "other"})
    # Same key set whatever the prior state — the property occ's
    # business-outcome check relies on to allow counter rebases.
    assert set(bumped) == set(fresh)


def test_get_defaults_to_zero():
    contract = CounterContract()
    assert contract.invoke(_ctx(StateDatabase()), "get", {"key": "nope"}) == 0


def test_unknown_function_raises():
    with pytest.raises(ChaincodeError):
        CounterContract().invoke(_ctx(StateDatabase()), "reset", {})


# -- contention trace ----------------------------------------------------------


def test_trace_is_deterministic_per_seed():
    make = lambda seed: ContentionWorkload(requests=50, seed=seed).generate()
    assert make(11) == make(11)
    assert make(11) != make(12)


def test_conflict_rate_one_touches_only_hot_keys():
    trace = ContentionWorkload(
        requests=40, hot_keys=4, conflict_rate=1.0, seed=1
    ).generate()
    assert all(request.hot for request in trace)
    assert {request.key for request in trace} <= {
        f"hot-{i:02d}" for i in range(4)
    }


def test_conflict_rate_zero_yields_unique_cold_keys():
    trace = ContentionWorkload(
        requests=40, conflict_rate=0.0, seed=1
    ).generate()
    assert not any(request.hot for request in trace)
    keys = [request.key for request in trace]
    assert len(set(keys)) == len(keys)  # no two requests can conflict


def test_conflict_rate_shapes_the_hot_fraction():
    trace = ContentionWorkload(
        requests=400, conflict_rate=0.5, seed=2
    ).generate()
    assert 0.35 < sum(request.hot for request in trace) / len(trace) < 0.65


def test_skew_concentrates_hot_traffic():
    def top_key_share(skew):
        trace = ContentionWorkload(
            requests=400, hot_keys=8, skew=skew, conflict_rate=1.0, seed=3
        ).generate()
        counts: dict[str, int] = {}
        for request in trace:
            counts[request.key] = counts.get(request.key, 0) + 1
        return max(counts.values()) / len(trace)

    assert top_key_share(1.2) > top_key_share(0.0)


def test_expected_totals_sum_amounts_per_key():
    trace = [
        BumpRequest(index=0, key="a", amount=2, hot=True),
        BumpRequest(index=1, key="a", amount=3, hot=True),
        BumpRequest(index=2, key="b", amount=1, hot=False),
    ]
    assert ContentionWorkload.expected_totals(trace) == {"a": 5, "b": 1}


def test_workload_rejects_bad_parameters():
    with pytest.raises(WorkloadError):
        ContentionWorkload(conflict_rate=1.5)
    with pytest.raises(WorkloadError):
        ContentionWorkload(conflict_rate=-0.1)
    with pytest.raises(WorkloadError):
        ContentionWorkload(requests=-1)


def test_bump_request_args_match_contract_signature():
    request = BumpRequest(index=0, key="hot-00", amount=2, hot=True)
    assert request.args == {"key": "hot-00", "amount": 2}


# -- sharded traces ------------------------------------------------------------


def test_one_shard_trace_is_byte_identical_to_presharding_generator():
    """Adding the sharding knobs must not perturb existing benches:
    the shards=1 default consumes the identical RNG stream and emits
    the identical key names."""
    base = ContentionWorkload(requests=30, seed=7).generate()
    explicit = ContentionWorkload(requests=30, seed=7, shards=1).generate()
    assert base == explicit
    assert all(request.shard == 0 for request in base)
    assert not any(request.cross_shard for request in base)
    assert {r.key for r in base if r.hot} <= {f"hot-{i:02d}" for i in range(8)}


def test_sharded_trace_is_round_robin_balanced():
    workload = ContentionWorkload(requests=32, seed=7, shards=4)
    trace = workload.generate()
    buckets = workload.per_shard(trace)
    assert [len(bucket) for bucket in buckets] == [8, 8, 8, 8]
    for shard, bucket in enumerate(buckets):
        assert all(request.shard == shard for request in bucket)


def test_sharded_keys_are_namespaced_per_home_shard():
    trace = ContentionWorkload(
        requests=40, seed=7, shards=4, conflict_rate=1.0
    ).generate()
    for request in trace:
        assert request.key.startswith(f"hot-s{request.shard}-")


def test_cross_shard_fraction_marks_partner_writes():
    workload = ContentionWorkload(
        requests=400, seed=7, shards=4, cross_shard_fraction=0.25
    )
    trace = workload.generate()
    fraction = sum(request.cross_shard for request in trace) / len(trace)
    assert 0.15 < fraction < 0.35
    for request in trace:
        for partner_shard, partner_key in request.partners:
            assert partner_shard != request.shard
            assert 0 <= partner_shard < 4
            # The partner key comes from the partner's own namespace.
            if partner_key.startswith("hot-"):
                assert partner_key.startswith(f"hot-s{partner_shard}-")
            else:
                assert partner_key.startswith(f"cold-s{partner_shard}-")


def test_cross_shard_requests_excluded_from_expected_totals():
    trace = [
        BumpRequest(index=0, key="a", amount=2, hot=True),
        BumpRequest(
            index=1, key="b", amount=3, hot=True,
            shard=0, partners=((1, "c"),),
        ),
    ]
    assert ContentionWorkload.expected_totals(trace) == {"a": 2}
    assert [request.cross_shard for request in trace] == [False, True]


def test_sharded_trace_is_deterministic_per_seed():
    make = lambda: ContentionWorkload(
        requests=60, seed=9, shards=3, cross_shard_fraction=0.2
    ).generate()
    assert make() == make()


def test_sharding_knobs_validated():
    with pytest.raises(WorkloadError):
        ContentionWorkload(shards=0)
    with pytest.raises(WorkloadError):
        ContentionWorkload(cross_shard_fraction=1.5, shards=2)
    with pytest.raises(WorkloadError):
        # Cross-shard traffic is meaningless on one shard.
        ContentionWorkload(cross_shard_fraction=0.5, shards=1)
