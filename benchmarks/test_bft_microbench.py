"""BFT ordering microbenchmark: pbft vs raft at f=0 and f=1.

Runs the WL1 hash-revocable workload on three ordering configurations:

- ``raft`` — the default crash-fault path (the fixed consensus-delay
  model the paper's deployment is calibrated against);
- ``pbft f=0`` — four honest PBFT replicas running the real
  pre-prepare/prepare/commit protocol with signed quorum certificates.
  An honest instance charges exactly the same ``ordering_consensus_ms``
  as the raft model, so this row must match the raft row *number for
  number* (simulated tps, latency, duration) — the bench-level
  corroboration of the byte-identity the differential suite asserts;
- ``pbft f=1`` — the same cluster with one replica armed to equivocate
  whenever it leads a view.  The attack costs a view change (a timeout
  plus a signed new-view round), the equivocator is convicted by its
  own conflicting signatures, and every block still commits under a
  verifying quorum certificate — the recorded row quantifies the
  latency/throughput tax of *surviving* a Byzantine primary.

Each faulted run is healed and passes the full invariant check
(exactly-once, ordering integrity vs the certificates, convergence)
before its row is recorded, so a row existing is also a passed chaos
experiment.  All headline numbers are simulated-time: deterministic in
the seed, machine-independent.

Results are recorded under ``bft`` in ``BENCH_micro.json`` at the repo
root.  Setting ``REPRO_BENCH_SCALE`` shrinks the workload for smoke runs
(the assertions still run; only a full run records).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bft_microbench.py -v -s
"""

from __future__ import annotations

import os

from repro.bench.harness import run_view_workload
from repro.crypto.rsa import keypair_pool
from repro.fabric.config import benchmark_config
from repro.faults import FaultEvent, FaultPlan, RetryPolicy
from repro.workload.presets import wl1_topology

#: Describes this file's rows in ``BENCH_micro.json``.
_DESCRIPTION = (
    "honest pbft asserted equal to the raft-modelled path field by field, "
    "and the view-change tax of an equivocating primary at f=1; simulated time"
)

SMOKE = "REPRO_BENCH_SCALE" in os.environ
CLIENTS = 4 if SMOKE else 8
REQUESTS_PER_CLIENT = 4 if SMOKE else 12
SEED = 31

#: The identity claim covers every simulated-time quantity the harness
#: reports — if honest pbft cost anything beyond the modelled consensus
#: delay, duration/tps/latency would all drift.
_IDENTITY_FIELDS = (
    "attempted",
    "committed",
    "duration_ms",
    "tps",
    "latency_mean_ms",
    "latency_p50_ms",
    "latency_p95_ms",
    "onchain_txs",
)


def _equivocation_plan() -> FaultPlan:
    return FaultPlan(
        seed=SEED,
        retry=RetryPolicy(timeout_ms=8_000.0),
        events=(FaultEvent(kind="byzantine_equivocate", at_ms=0.0, target=0),),
    )


def _run(backend: str, plan: FaultPlan | None = None):
    return run_view_workload(
        "HR",
        wl1_topology(),
        clients=CLIENTS,
        items_per_client=25,
        # Small blocks so the run commits several of them — the
        # per-block quorum-certificate trail is the point of the bench.
        config=benchmark_config(
            orderer_backend=backend, block_max_transactions=25
        ),
        max_requests_per_client=REQUESTS_PER_CLIENT,
        fault_plan=plan,
    )


def _row(result) -> dict:
    row = {
        "attempted": result.attempted,
        "committed": result.committed,
        "sim_tps": round(result.tps, 1),
        "latency_mean_ms": round(result.latency_mean_ms),
        "latency_p95_ms": round(result.latency_p95_ms),
        "duration_ms": round(result.duration_ms),
    }
    if "pbft" in result.extra:
        pbft = result.extra["pbft"]
        row["pbft"] = {
            key: pbft[key]
            for key in ("replicas", "f", "block_certs", "view_changes",
                        "equivocations")
        }
    return row


def test_pbft_vs_raft_and_byzantine_tax(record):
    rows = {}
    with keypair_pool(size=8):
        raft = _run("raft")
        honest = _run("pbft")
        faulted = _run("pbft", _equivocation_plan())

    # Honest pbft is free: the protocol ran (one quorum certificate per
    # block) yet every simulated-time number equals the raft model's.
    assert honest.extra["pbft"]["block_certs"] > 0
    assert honest.extra["pbft"]["view_changes"] == 0
    for name in _IDENTITY_FIELDS:
        assert getattr(honest, name) == getattr(raft, name), (
            f"honest pbft diverged from raft on {name}"
        )

    # The Byzantine leg paid for at least one view change, convicted
    # the equivocator, and still committed the whole workload.
    assert faulted.committed == faulted.attempted
    assert faulted.extra["pbft"]["equivocations"] >= 1
    assert faulted.extra["pbft"]["view_changes"] >= 1
    assert faulted.extra["faults"]["byzantine_replicas"] == 1
    assert faulted.duration_ms > honest.duration_ms
    assert faulted.tps < honest.tps

    rows["raft"] = _row(raft)
    rows["pbft_f0_honest"] = _row(honest)
    rows["pbft_f1_equivocating_primary"] = _row(faulted)
    record("bft", _DESCRIPTION, {"wl1_hr_ordering_backends": {
        "clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "seed": SEED,
        "rows": rows,
    }})
