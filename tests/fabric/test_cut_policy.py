"""Block-cutting policy: the paper's timer on a bare channel, group
commit once a serving target is bound (``FabricNetwork.cut_policy``)."""

from __future__ import annotations

import pytest

from repro import build_network
from repro.bench import harness
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.faults import FaultEvent, FaultInjector, FaultPlan, InvariantMonitor
from repro.serving import (
    AdmissionConfig,
    NetworkTarget,
    OpenLoopConfig,
    ShardedTarget,
    counter_builder,
    run_open_loop,
)
from repro.sharding import ShardedGateway, ShardedNetwork
from repro.workload import wl1_topology
from repro.workload.zipf import CounterContract

#: The e2e benchmark's gateway admission.
ADMISSION = AdmissionConfig(
    max_inflight=128, shed_high=384, shed_low=336, max_batch=32, linger_ms=2.0
)

ORDERERS = {
    "fixed": {},
    "raft": {"use_raft": True},
    "pbft": {"orderer_backend": "pbft"},
}


def _serving_config(**overrides) -> NetworkConfig:
    settings = dict(
        latency=SINGLE_REGION,
        real_signatures=False,
        key_bits=512,
        batch_timeout_ms=15.0,
        fault_plan="off",
    )
    settings.update(overrides)
    return NetworkConfig(**settings)


def _counter_channel(**overrides):
    network = build_network(_serving_config(**overrides))
    network.install_chaincode(CounterContract())
    return network, NetworkTarget(network, network.register_user("client"))


def _record_cuts(network) -> list[tuple[str, int]]:
    """``(reason, blocks outstanding when the batch was cut)`` per block."""
    cuts: list[tuple[str, int]] = []
    cut = network._cutter.cut

    def recording_cut(reason):
        cuts.append((reason, network.blocks_outstanding()))
        return cut(reason)

    network._cutter.cut = recording_cut
    return cuts


# -- (i) the group cutter's invariants over seeds, rates and orderers ----------------


@pytest.mark.parametrize("orderer", sorted(ORDERERS))
@pytest.mark.parametrize("rate", [25, 100, 400, 800])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_group_cutter_keeps_one_block_outstanding(seed, rate, orderer):
    network, target = _counter_channel(**ORDERERS[orderer])
    assert network.cut_policy == "group"
    cuts = _record_cuts(network)
    _metrics, requests = run_open_loop(
        target,
        OpenLoopConfig(offered_tps=rate, requests=160, sessions=8, seed=seed),
        counter_builder(prefix=f"s{seed}-"),
        admission=ADMISSION,
    )
    reasons = network.ordering.cut_reasons
    assert reasons["timeout"] == 0
    assert reasons["idle"] == network.ordering.blocks_cut == len(cuts)
    # Every block was cut into an empty pipeline: never two outstanding.
    assert all(outstanding == 0 for _reason, outstanding in cuts)
    assert all(r.outcome == "committed" for r in requests)
    assert network.blocks_outstanding() == 0 and network.queue_depth() == 0
    network.verify_convergence()
    InvariantMonitor(network).check()


def test_a_cap_cut_does_not_wait_for_the_outstanding_block():
    network, target = _counter_channel(block_max_transactions=4)
    cuts = _record_cuts(network)
    _metrics, requests = run_open_loop(
        target,
        OpenLoopConfig(offered_tps=800, requests=160, sessions=8, seed=1),
        counter_builder(),
        admission=ADMISSION,
    )
    assert network.ordering.cut_reasons["timeout"] == 0
    assert network.ordering.cut_reasons["count"] > 0
    # Only a cap cut may add a block to one still outstanding.
    assert max(outstanding for _reason, outstanding in cuts) >= 1
    assert all(
        outstanding == 0 for reason, outstanding in cuts if reason == "idle"
    )
    assert all(r.outcome == "committed" for r in requests)
    network.verify_convergence()
    InvariantMonitor(network).check()


# -- (ii) the reference peer's outage does not stall ordering -----------------------


def test_ordering_does_not_wait_for_a_dark_reference_peer():
    """A plan cannot crash peer 0 (it endorses and serves clients), so
    its outage here is a partition: every delivery to it is lost for
    200 ms and re-sent afterwards."""
    network, target = _counter_channel()
    plan = FaultPlan(
        seed=5,
        retry=None,
        events=(
            FaultEvent("partition", at_ms=300.0, for_ms=200.0, groups=(("peer:0",),)),
        ),
        redeliver_after_ms=20.0,
    )
    FaultInjector(network, plan)
    env = network.env
    during: dict[str, int] = {}

    def probe(_fired) -> None:
        during["reference"] = network.reference_peer.chain.height
        during["other"] = network.peers[1].chain.height
        during["ordered"] = len(network.block_log)
        during["outstanding"] = network.blocks_outstanding()

    env.timeout(495.0).callbacks.append(probe)
    _metrics, requests = run_open_loop(
        target,
        OpenLoopConfig(offered_tps=100, requests=100, sessions=8, seed=3),
        counter_builder(),
        admission=ADMISSION,
    )
    # Peer 1 kept committing and the orderer kept cutting ...
    assert during["other"] >= during["reference"] + 3
    assert during["ordered"] - during["other"] <= 1 >= during["outstanding"]
    # ... and every notice arrived once peer 0 had caught up.
    assert all(r.outcome == "committed" for r in requests)
    dark = [r for r in requests if 300.0 <= r.arrival_ms < 480.0]
    assert dark and all(r.completed_ms >= 500.0 for r in dark)
    assert network.ordering.cut_reasons["timeout"] == 0
    network.faults.heal()
    network.verify_convergence()
    InvariantMonitor(network).check()


# -- (iii) a shard's power cut leaves both gauges at zero ---------------------------


def test_a_chain_crash_and_its_recovery_leave_no_outstanding_work(outage):
    sharded = ShardedNetwork(
        config=_serving_config(storage_backend="memory"), shard_count=2
    )
    for network in sharded.shards:
        network.install_chaincode(CounterContract())
    target = ShardedTarget(ShardedGateway(sharded, "client"))
    assert [n.cut_policy for n in sharded.shards] == ["group", "group"]

    def burst(seed):
        _metrics, requests = run_open_loop(
            target,
            OpenLoopConfig(
                offered_tps=200,
                requests=60,
                sessions=4,
                seed=seed,
                start_ms=sharded.env.now,
            ),
            counter_builder(prefix=f"b{seed}-"),
            admission=ADMISSION,
        )
        assert all(r.outcome == "committed" for r in requests)
        sharded.run()  # quiescence: every peer of every shard has committed

    burst(1)
    victim = sharded.shards[1]
    assert victim.blocks_outstanding() == 0 and victim.queue_depth() == 0
    injector = outage(victim, "crash_chain")
    assert victim.blocks_outstanding() == 0 and victim.queue_depth() == 0
    injector.heal()
    assert victim.blocks_outstanding() == 0 and victim.queue_depth() == 0
    assert victim.reference_peer.chain.height == len(victim.block_log) > 0
    burst(2)
    assert victim.ordering.cut_reasons["timeout"] == 0
    sharded.verify_convergence()


# -- (iv) who gets which policy ------------------------------------------------------


def test_a_bare_channel_cuts_on_the_timer(network):
    assert network.cut_policy == "timer"
    user = network.register_user("client")
    network.invoke_sync(
        user,
        "supply",
        "create_item",
        args={"item": "i-1", "owner": "W1"},
        public={"item": "i-1", "to": "W1"},
    )
    assert network.ordering.cut_reasons["timeout"] == 1
    assert network.ordering.cut_reasons["idle"] == 0
    assert network._commit_progress is None


def test_closed_loop_harness_clients_stay_on_the_timer(monkeypatch):
    built = []
    build_view_setup = harness.build_view_setup

    def recording_setup(*args, **kwargs):
        setup = build_view_setup(*args, **kwargs)
        built.append(setup[1])
        return setup

    monkeypatch.setattr(harness, "build_view_setup", recording_setup)
    result = harness.run_view_workload(
        "HR",
        wl1_topology(),
        clients=2,
        items_per_client=2,
        config=_serving_config(),
    )
    assert result.committed > 0
    (channel,) = built
    assert channel.cut_policy == "timer"
    assert channel.ordering.cut_reasons["idle"] == 0
    assert channel.ordering.cut_reasons["timeout"] > 0


def test_the_timer_can_be_put_back_behind_a_bound_target():
    """The policy is an attribute of the channel, not a config field;
    the serving pins reset it to compare against the paper's cutter."""
    assert "cut_policy" not in NetworkConfig.__dataclass_fields__
    network, target = _counter_channel()
    network.cut_policy = "timer"
    _metrics, requests = run_open_loop(
        target,
        OpenLoopConfig(offered_tps=100, requests=40, sessions=4, seed=1),
        counter_builder(),
        admission=ADMISSION,
    )
    assert all(r.outcome == "committed" for r in requests)
    reasons = network.ordering.cut_reasons
    assert reasons["idle"] == 0 and reasons["timeout"] == network.ordering.blocks_cut
    assert network._commit_progress is None
