"""Chaos trajectories pinned across refactors of the fault/orderer seams.

Four seeded chaos runs, each reduced to tid-free observables (the
clock, sorted latencies, injector counters, block cutting, consensus
churn, per-peer heights, and the number of events the kernel
scheduled) and compared field by field with ``chaos.<name>`` of
``benchmarks/pins_expected.json``, recorded at the commit *before* the
seams were introduced.  A refactor
of how the network talks to its fault layer or its ordering service
must leave every one of them untouched: same RNG draw order, same
events, same clock.

The heal instants and loads are the ones at which the recorded commit
runs at all: a storage crash with blocks queued at the dying peer is a
defect there (ROADMAP item 2(b)) that kills the simulation.

Every backend selector is pinned in the config, so the values hold
under any ambient ``REPRO_*`` variable.  Transaction ids are explicit
and every encoded size is independent of the random key material, so
no DRBG needs arming.

``topology`` was regenerated once, when the phi-accrual heartbeat
detector and the hedged query client were deleted: the scenario ran
both, and their processes, their events and their draws on the shared
link-loss RNG are gone, so every later loss decision and the
trajectory after it moved.

All four were regenerated once when a request became one process.
``events_scheduled`` fell on each, because a retried request no longer
starts a process per attempt; ``topology`` and ``pbft`` moved by that
field alone.  ``messages`` and ``storage_crash`` moved further: a
notice that lands during a backoff now completes its request, so no
retry re-endorses or re-broadcasts after the commit, and an attempt
whose broadcast is held on a delay rule keeps its request until the
broadcast is sent.  Later message-fate draws shift with them.

All four were regenerated again when a tid became one envelope: a
timeout retry re-broadcasts the transaction its one endorsement built
instead of endorsing again.  A retry no longer queues at the endorsers,
so ``events_scheduled`` fell and latencies moved on each, and a re-sent
copy keeps its first read set, so on the shared keys it now loses MVCC
validation where a re-endorsement used to read past the conflict
(``invalid`` rose on ``messages``, ``topology`` and ``pbft``).
``storage_crash`` moved in the same regeneration for a second reason:
a snapshot no longer writes and fsyncs a manifest, so each crash
point's op index names a different durable op (peer 1's ``at_op=9`` is
now a WAL append, and tears it).
"""

from __future__ import annotations

import pytest

from repro import build_network
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.endorser import Proposal
from repro.faults import (
    CrashPointSpec,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    InvariantMonitor,
    MessageFaultRule,
    RetryPolicy,
)
from repro.workload.zipf import COUNTER_CHAINCODE, CounterContract

RETRY = RetryPolicy(
    max_attempts=10,
    timeout_ms=400.0,
    backoff_ms=40.0,
    max_backoff_ms=300.0,
    jitter_ms=15.0,
)


def _network(plan: FaultPlan | None, **overrides) -> object:
    settings = dict(
        latency=SINGLE_REGION,
        real_signatures=False,
        key_bits=512,
        batch_timeout_ms=20.0,
        block_max_transactions=4,
        peer_count=3,
        commit_backend="reference",
        orderer_backend="raft",
        storage_backend="none",
        fault_plan=plan.to_json() if plan is not None else "off",
    )
    settings.update(overrides)
    network = build_network(NetworkConfig(**settings))
    network.install_chaincode(CounterContract())
    return network


def _drive(network, prefix: str, count: int, every_ms: float):
    """Open-loop counter bumps over seven keys, with explicit tids.

    Returns ``(latencies, failures)``, filled in as submissions settle:
    milliseconds from issue to commit notice, or to the error.  A bump
    re-endorses cleanly whatever already committed, so retries never
    die in the chaincode; the shared keys add MVCC losers to the mix.
    """
    env = network.env
    user = network.register_user(f"client-{prefix}")
    latencies: list[float] = []
    failures: list[float] = []

    def settle(issued: float):
        def on_fire(fired) -> None:
            (latencies if fired.ok else failures).append(env.now - issued)

        return on_fire

    def issue():
        for i in range(count):
            proposal = Proposal(
                chaincode=COUNTER_CHAINCODE,
                fn="bump",
                args={"key": f"k{i % 7}", "amount": 1},
                creator=user.user_id,
                tid=f"{prefix}-{i:04d}",
            )
            network.submit(proposal).callbacks.append(settle(env.now))
            yield env.timeout(every_ms)

    env.process(issue())
    return latencies, failures


def _common(network, latencies, failures) -> dict:
    ordering = network.ordering
    # The pinned values predate the group cutter's "idle" reason; a
    # channel no serving target is bound to must never take that cut.
    reasons = dict(ordering.cut_reasons)
    assert reasons.pop("idle") == 0 and network.cut_policy == "timer"
    return {
        "now": network.env.now,
        "events_scheduled": network.env._sequence,
        "latencies": sorted(latencies),
        "failures": sorted(failures),
        "faults": network.faults.summary(),
        "blocks_cut": ordering.blocks_cut,
        "cut_reasons": dict(sorted(reasons.items())),
        "heights": [peer.chain.height for peer in network.peers],
        "committed": len(network.reference_peer.validation_codes),
        "invalid": network.metrics.invalid_txs.value,
        "queue_depth": network.queue_depth(),
        "queue_peak": network.orderer_queue_peak,
    }


def _messages() -> dict:
    """Drop / duplicate / delay on both channels under a retry policy,
    healed while messages are still parked on delay timers."""
    plan = FaultPlan(
        seed=21,
        retry=RETRY,
        messages=(
            MessageFaultRule(
                channel="client_to_orderer",
                drop=0.15,
                duplicate=0.2,
                delay=0.3,
                delay_range_ms=(5.0, 2_500.0),
            ),
            MessageFaultRule(
                channel="orderer_to_peer",
                drop=0.2,
                delay=0.3,
                delay_range_ms=(5.0, 2_500.0),
            ),
        ),
        redeliver_after_ms=60.0,
    )
    network = _network(plan)
    env = network.env
    latencies, failures = _drive(network, "msg", count=60, every_ms=7.0)
    env.run(until=2_200.0)
    network.faults.heal()
    env.run()  # the fixed-delay orderer has no timers: the queue drains
    InvariantMonitor(network).check()
    return _common(network, latencies, failures)


def _topology() -> dict:
    """Partitions plus slow and lossy degradations over real raft, with
    a peer crash inside them."""
    plan = FaultPlan(
        seed=33,
        retry=RETRY,
        # The recorded trajectory started the crash's process first,
        # then the partitions', then the slowdowns' and losses': listed
        # in that order, the kernel schedules the same events in turn.
        events=(
            FaultEvent(kind="crash_peer", at_ms=500.0, for_ms=400.0, target=2),
            FaultEvent(
                kind="partition",
                at_ms=300.0,
                for_ms=700.0,
                groups=(("orderer:2", "peer:3"),),
            ),
            FaultEvent(
                kind="partition",
                at_ms=1_200.0,
                for_ms=400.0,
                groups=(("peer:1",),),
                symmetric=False,
            ),
            FaultEvent(
                kind="slow_node", at_ms=150.0, for_ms=1_200.0, node="peer:1", factor=8.0
            ),
            FaultEvent(
                kind="slow_link",
                at_ms=100.0,
                for_ms=1_500.0,
                src="orderer",
                dst="peer:2",
                factor=6.0,
            ),
            FaultEvent(
                kind="slow_link",
                at_ms=100.0,
                for_ms=1_500.0,
                src="client",
                dst="peer:1",
                factor=4.0,
            ),
            FaultEvent(
                kind="slow_link",
                at_ms=100.0,
                for_ms=1_500.0,
                src="client",
                dst="orderer",
                factor=3.0,
            ),
            FaultEvent(
                kind="link_loss",
                at_ms=200.0,
                for_ms=1_400.0,
                src="client",
                dst="orderer",
                drop=0.3,
            ),
            FaultEvent(
                kind="link_loss",
                at_ms=200.0,
                for_ms=1_400.0,
                src="orderer",
                dst="peer:1",
                drop=0.35,
            ),
            FaultEvent(
                kind="link_loss",
                at_ms=200.0,
                for_ms=1_400.0,
                src="peer:2",
                dst="client",
                drop=0.4,
            ),
            FaultEvent(
                kind="link_loss",
                at_ms=200.0,
                for_ms=1_400.0,
                src="client",
                dst="peer:2",
                drop=0.25,
            ),
            FaultEvent(
                kind="link_loss",
                at_ms=200.0,
                for_ms=1_400.0,
                src="client",
                dst="peer:0",
                drop=0.2,
            ),
        ),
        redeliver_after_ms=70.0,
    )
    network = _network(None, use_raft=True, peer_count=4)
    env = network.env
    env.run(until=50.0)  # attached late: plan times are relative to this
    FaultInjector(network, plan)
    started = env.now
    latencies, failures = _drive(network, "top", count=50, every_ms=25.0)
    env.run(until=started + 2_300.0)
    network.faults.heal()
    env.run(until=started + 2_700.0)
    InvariantMonitor(network).check()
    observed = _common(network, latencies, failures)
    observed["elections"] = network.raft.elections_held
    return observed


def _storage_crash() -> dict:
    """Crash points inside the durable commit path (one torn record with
    a timed restart, one held down until heal) under real raft with a
    leader crash, on memory stores."""
    plan = FaultPlan(
        seed=5,
        retry=RETRY,
        events=(FaultEvent(kind="crash_leader", at_ms=1_000.0, for_ms=400.0),),
        crash_points=(
            CrashPointSpec(
                target=1, at_op=9, partial_fraction=0.5, recover_after_ms=300.0
            ),
            CrashPointSpec(target=2, at_op=23),
        ),
        redeliver_after_ms=60.0,
    )
    network = _network(
        plan, use_raft=True, storage_backend="memory", snapshot_interval_blocks=3
    )
    env = network.env
    latencies, failures = _drive(network, "sto", count=40, every_ms=45.0)
    env.run(until=2_000.0)
    network.faults.heal()
    env.run(until=2_600.0)
    InvariantMonitor(network).check()
    observed = _common(network, latencies, failures)
    observed["elections"] = network.raft.elections_held
    observed["storage"] = network.storage.summary()["nodes"]
    return observed


def _pbft() -> dict:
    """pbft with an equivocating primary (convicted, view change) and a
    later leader crash, under delivery loss."""
    plan = FaultPlan(
        seed=9,
        retry=RETRY,
        messages=(
            MessageFaultRule(channel="orderer_to_peer", drop=0.15),
            MessageFaultRule(channel="client_to_orderer", drop=0.1),
        ),
        events=(
            FaultEvent(kind="byzantine_equivocate", at_ms=120.0, target=0),
            FaultEvent(kind="crash_leader", at_ms=700.0, for_ms=500.0),
        ),
        redeliver_after_ms=60.0,
    )
    network = _network(plan, orderer_backend="pbft")
    env = network.env
    latencies, failures = _drive(network, "bft", count=60, every_ms=20.0)
    env.run(until=1_900.0)
    network.faults.heal()
    env.run()
    InvariantMonitor(network).check()
    pbft = network.pbft
    observed = _common(network, latencies, failures)
    observed.update(
        {
            "view": pbft.view,
            "pbft_stats": dict(sorted(pbft.stats.items())),
            "convicted": sorted(pbft.convicted),
            "block_certs": len(network.block_certs),
            "cert_views": [cert.view for cert in network.block_certs],
        }
    )
    return observed


SCENARIOS = {
    "messages": _messages,
    "topology": _topology,
    "storage_crash": _storage_crash,
    "pbft": _pbft,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_chaos_trajectory_matches_the_pinned_digest(name, drift):
    observed = SCENARIOS[name]()
    # The scenario went through the fire, not around it.
    faults = observed["faults"]
    assert observed["latencies"] and faults["redeliveries"] > 0
    assert observed["heights"] == [observed["blocks_cut"]] * len(observed["heights"])
    lines = drift.pin_diff(observed, "chaos", name)
    assert not lines, "\n".join(lines)
