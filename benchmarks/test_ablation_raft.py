"""Ablation: real Raft ordering vs the fixed consensus-delay model.

The default network charges a constant per-block consensus delay; with
``use_raft`` the blocks go through actual leader-based replication.
Two checks: (1) under healthy conditions the two models agree (Raft's
commit adds only round-trips among co-located orderers), and (2) a
leader crash stalls ordering for about one election timeout and then
service continues — the availability story the paper's Raft deployment
buys.
"""

from dataclasses import replace

from repro import build_network
from repro.bench.report import print_series
from repro.fabric.config import SINGLE_REGION, benchmark_config
from repro.fabric.endorser import Proposal
from repro.fabric.peer import ValidationCode

BASE = benchmark_config(latency=SINGLE_REGION, batch_timeout_ms=100.0)


def _run_burst(network, count, prefix):
    events = [
        network.submit(
            Proposal(
                chaincode="supply",
                fn="create_item",
                args={"item": f"{prefix}-{i}", "owner": "x"},
                creator="client",
            )
        )
        for i in range(count)
    ]
    notices = network.env.run(until=network.env.all_of(events))
    assert all(n.code is ValidationCode.VALID for n in notices)


def test_raft_vs_fixed_delay(run_once):
    def sweep():
        rows = []
        for label, config in (
            ("fixed-delay", BASE),
            ("raft", replace(BASE, use_raft=True)),
        ):
            network = build_network(config)
            network.register_user("client")
            start = network.env.now
            _run_burst(network, 200, label)
            duration = network.env.now - start
            rows.append(
                {
                    "ordering": label,
                    "latency_ms": round(
                        network.metrics.latencies_ms.summary().mean
                    ),
                    "duration_ms": round(duration),
                }
            )
        return rows

    rows = run_once(sweep)
    print_series(
        "Ablation — Raft ordering vs fixed consensus delay",
        rows,
        note="Healthy Raft costs only orderer round-trips per block.",
    )
    fixed, raft = rows[0], rows[1]
    # Within 2x of each other under healthy conditions.
    assert raft["latency_ms"] < 2.0 * fixed["latency_ms"]


def test_leader_crash_stalls_then_recovers(run_once):
    def run():
        network = build_network(replace(BASE, use_raft=True))
        network.register_user("client")
        # The cluster's first traffic pays for its first election, so
        # the healthy baseline is a burst sent once a leader exists.
        _run_burst(network, 20, "elect")
        _run_burst(network, 20, "warm")
        healthy_latency = sum(network.metrics.latencies_ms.values[-20:]) / 20

        network.raft.crash(network.raft.leader.node_id)
        before = network.env.now
        _run_burst(network, 20, "crash")
        crash_window_latency = (
            sum(network.metrics.latencies_ms.values[-20:]) / 20
        )
        recovery_ms = network.env.now - before
        return {
            "healthy_latency_ms": round(healthy_latency),
            "crash_window_latency_ms": round(crash_window_latency),
            "recovery_ms": round(recovery_ms),
            "elections": network.raft.elections_held,
        }

    stats = run_once(run)
    print_series("Ablation — ordering-leader crash", [stats])
    # The crash costs extra latency (election + re-replication)…
    assert stats["crash_window_latency_ms"] > stats["healthy_latency_ms"]
    # …but service recovers without intervention.
    assert stats["elections"] >= 2
    assert stats["recovery_ms"] < 10_000
