"""Admission control: shed watermarks, hysteresis, bounded inflight —
plus the live ``queue_depth`` accessors the backlog signal reads."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.fabric.endorser import Proposal
from repro.fabric.network import PhaseWallClock
from repro.serving import AdmissionConfig, AsyncGateway, ServingRequest, drive
from repro.sharding.network import ShardedNetwork
from repro.sim.core import Environment


class StubTarget:
    """Commits every batch after a fixed service time; records the
    number of dispatched-but-unresolved requests at each dispatch."""

    def __init__(self, env, service_ms=10.0):
        self.env = env
        self.phase_wall = PhaseWallClock()
        self.service_ms = service_ms
        self.batch_sizes: list[int] = []
        self.inflight_at_dispatch: list[int] = []
        self.outstanding = 0

    def queue_depth(self) -> int:
        return 0

    def dispatch(self, batch, complete):
        self.batch_sizes.append(len(batch))
        self.outstanding += len(batch)
        self.inflight_at_dispatch.append(self.outstanding)

        def served(_fired):
            for request in batch:
                self.outstanding -= 1
                complete(request, "committed", None)

        self.env.timeout(self.service_ms).callbacks.append(served)


def _requests(count, arrival_ms=0.0):
    return [
        ServingRequest(index=i, session=0, payload={}, arrival_ms=arrival_ms)
        for i in range(count)
    ]


def _drive(gateway, schedule):
    """Feed (time, request) pairs through one session and drain."""
    for when, request in schedule:
        request.arrival_ms = when
    drive(gateway, [request for _when, request in schedule])


def test_burst_beyond_watermark_is_shed():
    env = Environment()
    target = StubTarget(env)
    gateway = AsyncGateway(
        target,
        AdmissionConfig(
            max_inflight=4, shed_high=6, shed_low=2, max_batch=4, linger_ms=0.0
        ),
    )
    requests = _requests(20)
    _drive(gateway, [(0.0, r) for r in requests])
    outcomes = [r.outcome for r in requests]
    assert outcomes.count("shed") > 0
    assert outcomes.count("committed") + outcomes.count("shed") == 20
    # Terminal stamps everywhere, shed ones terminal at arrival time.
    assert all(r.completed_ms is not None for r in requests)
    shed = [r for r in requests if r.outcome == "shed"]
    assert all(r.completed_ms == r.arrived_ms for r in shed)


def test_hysteresis_keeps_shedding_until_low_watermark():
    env = Environment()
    target = StubTarget(env, service_ms=50.0)
    gateway = AsyncGateway(
        target,
        AdmissionConfig(
            max_inflight=2, shed_high=4, shed_low=1, max_batch=2, linger_ms=0.0
        ),
    )
    burst = _requests(8)
    # Arrives once the burst has drained to backlog 2 (> shed_low): the
    # gate must still be closed even though backlog < shed_high.
    midway = ServingRequest(index=100, session=0, arrival_ms=60.0)
    # Arrives after everything drained (backlog 0 <= shed_low): admitted.
    late = ServingRequest(index=101, session=0, arrival_ms=500.0)
    schedule = [(0.0, r) for r in burst] + [(60.0, midway), (500.0, late)]
    _drive(gateway, schedule)
    assert [r.outcome for r in burst].count("shed") >= 2
    assert midway.outcome == "shed"
    assert late.outcome == "committed"


def test_inflight_never_exceeds_bound():
    env = Environment()
    target = StubTarget(env, service_ms=25.0)
    gateway = AsyncGateway(
        target,
        AdmissionConfig(
            max_inflight=4,
            shed_high=1000,
            shed_low=500,
            max_batch=2,
            linger_ms=0.0,
        ),
    )
    requests = _requests(20)
    _drive(gateway, [(0.0, r) for r in requests])
    assert all(r.outcome == "committed" for r in requests)
    assert max(target.inflight_at_dispatch) <= 4
    assert max(target.batch_sizes) <= 2


def test_admission_config_validation():
    with pytest.raises(WorkloadError):
        AdmissionConfig(max_batch=0)
    with pytest.raises(WorkloadError):
        AdmissionConfig(max_inflight=0)
    with pytest.raises(WorkloadError):
        AdmissionConfig(shed_low=10, shed_high=5)
    with pytest.raises(WorkloadError):
        AdmissionConfig(linger_ms=-1.0)


# -- the live queue-depth accessors (the backlog signal's third term) ----------


def test_network_queue_depth_is_live(network):
    env = network.env
    user = network.register_user("client")
    events = [
        network.submit(
            Proposal(
                chaincode="supply",
                fn="create_item",
                args={"item": f"qd-{i}", "owner": "W1"},
                public={"item": f"qd-{i}", "to": "W1"},
                creator=user.user_id,
            )
        )
        for i in range(10)
    ]
    samples = []

    def sampler():
        for _ in range(100):
            samples.append(network.queue_depth())
            yield env.timeout(5.0)

    env.process(sampler())
    env.run(until=env.all_of(events))
    # The cutter held transactions at some point and drained by the end.
    assert max(samples) > 0
    assert network.queue_depth() == 0
    # The high-water mark recorded by the pump covers what we sampled.
    assert network.orderer_queue_peak >= max(samples)


def test_sharded_queue_depth_sums_live_shards(outage):
    sharded = ShardedNetwork(shard_count=2)
    assert sharded.queue_depth() == 0
    assert [n.queue_depth() for n in sharded.shards] == [0, 0]
    # A dark shard keeps the queue it had (a partition keeps its
    # memory), but holds nothing admittable: the sum skips it.
    dark = sharded.shards[1]
    user = dark.register_user("client")
    dark.submit(
        Proposal(
            chaincode="supply",
            fn="create_item",
            args={"item": "qd", "owner": "W1"},
            public={"item": "qd", "to": "W1"},
            creator=user.user_id,
        )
    )
    sharded.run(until=sharded.env.now + 5.0)
    assert [n.queue_depth() for n in sharded.shards] == [0, 1]
    assert sharded.queue_depth() == 1
    outage(dark, "partition_chain")
    assert sharded.queue_depth() == 0
    assert [n.queue_depth() for n in sharded.shards] == [0, 1]
