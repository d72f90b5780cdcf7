"""Chaos differential suite: faults change timing, never semantics.

Each test runs the same seeded workload twice — once fault-free, once
under a seeded chaos plan (Raft leader killed mid-block, 10% message
loss on both channels, view owner offline for 5 s) — and asserts the
*semantic* observables match: every served secret, every audit verdict,
and all business state.  Chain bytes are deliberately not compared
across legs: retries and redelivery legitimately move block boundaries.
Within the faulted leg the invariant monitor enforces exactly-once
commitment and replica convergence to one tip hash, and a repeat of the
faulted leg under the same seeds must reproduce it byte for byte.

The DRBG-rearming fixture mirrors the commit-backend differential
suite so both legs draw identical randomness and transaction ids.
"""

from __future__ import annotations

import itertools
import random
import secrets as secrets_module

import pytest

from repro import build_network
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.network import Gateway
from repro.faults import (
    FaultEvent,
    FaultPlan,
    InvariantMonitor,
    MessageFaultRule,
    RetryPolicy,
)
from repro.ledger import transaction as transaction_module
from repro.views.encryption_based import EncryptionBasedManager
from repro.views.hash_based import HashBasedManager
from repro.views.manager import ViewReader
from repro.views.predicates import AttributeEquals
from repro.views.types import ViewMode
from repro.views.verification import ViewVerifier

METHODS = {
    "EI": (EncryptionBasedManager, ViewMode.IRREVOCABLE),
    "ER": (EncryptionBasedManager, ViewMode.REVOCABLE),
    "HI": (HashBasedManager, ViewMode.IRREVOCABLE),
    "HR": (HashBasedManager, ViewMode.REVOCABLE),
}

PREDICATE = AttributeEquals("to", "W1")

#: The acceptance-criteria chaos plan: kill the Raft leader mid-block,
#: drop 10% of messages on both channels, take the view owner offline
#: for five seconds mid-workload.
CHAOS_PLAN = FaultPlan(
    seed=7,
    retry=RetryPolicy(
        max_attempts=8, timeout_ms=3_000.0, backoff_ms=100.0, jitter_ms=25.0
    ),
    messages=(
        MessageFaultRule(channel="client_to_orderer", drop=0.10),
        MessageFaultRule(channel="orderer_to_peer", drop=0.10),
    ),
    events=(
        FaultEvent(kind="crash_leader", at_ms=400.0, for_ms=2_000.0),
        FaultEvent(kind="owner_outage", at_ms=2_500.0, for_ms=5_000.0),
    ),
    redeliver_after_ms=150.0,
)

ITEMS_IN_VIEW = [f"i{i}" for i in range(4)] + [f"j{i}" for i in range(3)]
ITEMS_OUTSIDE = ["x0"]


@pytest.fixture
def rearm(monkeypatch):
    """Arm a seeded DRBG behind ``secrets`` and reset the tid counter so
    every leg draws the same bytes and transaction ids in order."""

    def arm():
        rng = random.Random(0x1EDE9)
        monkeypatch.setattr(
            secrets_module, "token_bytes", lambda n=32: rng.randbytes(n)
        )
        monkeypatch.setattr(secrets_module, "randbits", rng.getrandbits)
        monkeypatch.setattr(secrets_module, "randbelow", lambda n: rng.randrange(n))
        monkeypatch.setattr(
            transaction_module, "_tid_counter", itertools.count(7_000_000)
        )

    return arm


def _config(plan: FaultPlan | None) -> NetworkConfig:
    # ``"off"`` (not None) for the clean leg: it must stay fault-free
    # even when CI exports an ambient REPRO_FAULT_PLAN.
    return NetworkConfig(
        latency=SINGLE_REGION,
        real_signatures=False,
        batch_timeout_ms=50.0,
        use_raft=True,
        fault_plan=plan.to_json() if plan is not None else "off",
    )


def _verdict(report):
    """An audit report reduced to its verdict (timing-free fields)."""
    return (
        report.check,
        report.view,
        report.ok,
        report.checked,
        tuple(report.violations),
        tuple(report.missing),
    )


def _run_scenario(method: str, plan: FaultPlan | None):
    """One leg: seeded workload spanning the fault window, then audit.

    Returns (semantics, fingerprint, fault_summary).  ``semantics`` must
    be invariant under faults; ``fingerprint`` additionally pins chain
    bytes and the clock, equal only between same-seed same-plan runs.
    """
    manager_cls, mode = METHODS[method]
    network = build_network(_config(plan))
    monitor = InvariantMonitor(network)
    env = network.env
    owner = network.register_user("owner")
    manager = manager_cls(Gateway(network, owner))
    manager.create_view("w1", PREDICATE, mode)

    def wave(names, to):
        events = [
            manager.invoke_with_secret_async(
                "create_item",
                {"item": name, "owner": to},
                {"item": name, "from": None, "to": to},
                f"manifest-{name}".encode(),
            )
            for name in names
        ]
        env.run(until=env.all_of(events))
        return [event.value for event in events]

    outcomes = wave(ITEMS_IN_VIEW[:4], "W1")
    outcomes += wave(ITEMS_OUTSIDE, "W9")
    # The second burst is issued at t=3s — inside both the leader-crash
    # recovery and the owner-outage window of the chaos plan, so these
    # requests queue at the offline owner and retry through the orderer
    # outage.  The fault-free leg idles to the same instant, keeping the
    # client-side issue order (and thus tids and DRBG draws) identical.
    if env.now < 3_000.0:
        env.run(until=3_000.0)
    outcomes += wave(ITEMS_IN_VIEW[4:], "W1")

    if network.faults is not None:
        network.faults.heal()
        # Drain in-flight redelivery loops; the supersession guard makes
        # late deliveries of already-caught-up blocks no-ops.
        env.run(until=env.now + 2_000.0)
    network.verify_convergence()
    monitor.check()

    reader_user = network.register_user("bob")
    reader = ViewReader(reader_user, Gateway(network, reader_user))
    reader.accept_offchain_grant(manager.grant_access_offchain("w1", "bob"))
    if mode is ViewMode.IRREVOCABLE:
        result = reader.read_irrevocable_view(manager, "w1")
    else:
        result = reader.read_view(manager, "w1")
    verifier = ViewVerifier(Gateway(network, reader_user))
    soundness = verifier.verify_soundness("w1", PREDICATE, result, manager.concealment)
    completeness = verifier.verify_completeness("w1", PREDICATE, set(result.secrets))

    gateway = Gateway(network, owner)
    semantics = {
        "codes": [out.notice.code.value for out in outcomes],
        "served": dict(sorted(result.secrets.items())),
        "key_version": result.key_version,
        "soundness": _verdict(soundness),
        "completeness": _verdict(completeness),
        "items": {
            name: gateway.query("supply", "get_item", {"item": name})
            for name in ITEMS_IN_VIEW + ITEMS_OUTSIDE
        },
    }
    peer = network.reference_peer
    fingerprint = {
        "semantics": semantics,
        "tip": peer.chain.tip_hash.hex(),
        "blocks": [
            (block.number, [tx.tid for tx in block.transactions])
            for block in peer.chain
        ],
        "sim_now": env.now,
        "faults": network.faults.summary() if network.faults is not None else None,
    }
    return semantics, fingerprint, fingerprint["faults"]


@pytest.mark.parametrize("method", sorted(METHODS))
def test_chaos_preserves_semantics(method, rearm):
    rearm()
    clean, _clean_print, no_faults = _run_scenario(method, None)
    rearm()
    chaotic, _chaos_print, summary = _run_scenario(method, CHAOS_PLAN)

    # The faulted leg genuinely went through the fire ...
    assert no_faults is None
    assert summary["orderer_crashes"] == 1
    assert summary["owner_outages"] == 1
    disturbances = (
        summary["retries"]
        + summary["rescued_notices"]
        + summary["redeliveries"]
        + summary["deduped_txs"]
        + sum(summary["messages_dropped"].values())
    )
    assert disturbances > 0, f"chaos plan injected nothing: {summary}"

    # ... yet every client-visible observable matches the calm leg.
    assert chaotic["codes"] == clean["codes"] == ["valid"] * len(clean["codes"])
    assert chaotic["served"] == clean["served"]
    assert chaotic["items"] == clean["items"]
    assert chaotic["soundness"] == clean["soundness"]
    assert chaotic["completeness"] == clean["completeness"]
    assert chaotic["key_version"] == clean["key_version"]
    # And the audits actually passed over real data.
    assert clean["soundness"][2] is True and clean["completeness"][2] is True
    assert sorted(clean["served"]) and clean["soundness"][3] == len(ITEMS_IN_VIEW)


def test_same_seed_chaos_run_is_reproducible(rearm):
    """Two faulted runs under identical seeds are byte-identical —
    fault injection is part of the deterministic simulation, so any
    chaos failure can be replayed exactly from its plan."""
    rearm()
    _semantics, first, _ = _run_scenario("HR", CHAOS_PLAN)
    rearm()
    _semantics, second, _ = _run_scenario("HR", CHAOS_PLAN)
    assert first == second


def test_lost_tlc_flush_is_retried_and_list_converges(rearm):
    """The TLC starvation/loss case end to end: the flush transaction
    carrying the tx-list update is dropped in flight exactly once; the
    retry must land it, leaving the on-chain list — and the
    completeness audit that depends on it — identical to a fault-free
    run."""
    plan = FaultPlan(
        seed=11,
        retry=RetryPolicy(max_attempts=6, timeout_ms=2_000.0, backoff_ms=100.0),
        messages=(
            MessageFaultRule(
                channel="client_to_orderer",
                kind="txlist-flush",
                drop=1.0,
                max_drops=1,
            ),
        ),
    )

    def run(active_plan):
        network = build_network(_config(active_plan))
        monitor = InvariantMonitor(network)
        owner = network.register_user("owner")
        manager = HashBasedManager(Gateway(network, owner), use_txlist=True)
        manager.create_view("w1", PREDICATE, ViewMode.IRREVOCABLE)
        outcomes = [
            manager.invoke_with_secret(
                "create_item",
                {"item": f"t{i}", "owner": "W1"},
                {"item": f"t{i}", "from": None, "to": "W1"},
                f"tlc-{i}".encode(),
            )
            for i in range(3)
        ]
        manager.txlist.flush()
        if network.faults is not None:
            network.faults.heal()
        network.verify_convergence()
        monitor.check()

        reader_user = network.register_user("bob")
        reader = ViewReader(reader_user, Gateway(network, reader_user))
        reader.accept_offchain_grant(manager.grant_access_offchain("w1", "bob"))
        result = reader.read_irrevocable_view(manager, "w1")
        completeness = ViewVerifier(Gateway(network, reader_user)).verify_completeness(
            "w1", PREDICATE, set(result.secrets)
        )
        return {
            "list": sorted(manager.txlist.get_list("w1")),
            "tids": sorted(out.tid for out in outcomes),
            "completeness": _verdict(completeness),
        }, network.faults

    rearm()
    clean, _ = run(None)
    rearm()
    chaotic, faults = run(plan)

    assert sum(faults.messages.dropped.values()) == 1, "the flush was never dropped"
    assert faults.stats["retries"] + faults.stats["rescued_notices"] >= 1
    assert chaotic["list"] == clean["list"] == clean["tids"]
    assert chaotic["completeness"] == clean["completeness"]
    assert clean["completeness"][2] is True
