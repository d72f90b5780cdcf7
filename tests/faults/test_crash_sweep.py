"""Crash-point sweep: kill peer 1 at *every* durable operation.

One fault-free baseline leg runs a short mixed workload (all four view
methods: encryption/hash x irrevocable/revocable) with durability on
and counts the durable operations peer 1 performs — WAL appends and
fsyncs, snapshot writes and fsyncs, prunes.  Then one leg per
operation re-runs the identical seeded workload with a crash point
armed at exactly that op (appends torn mid-record via
``partial_fraction``), heals, and asserts the recovered network is
byte-identical to the baseline: same validation codes, same block
boundaries and tids, same tip hash, same state roots on every replica,
same served secrets and audit verdicts.

Because the sweep hits every op index, it covers every crash window
the storage layer has: mid-WAL-record, between append and fsync,
mid-snapshot, between a snapshot's fsync and its prune, and during
stale-snapshot pruning.  No window may lose a committed block or
corrupt recovery.
"""

from __future__ import annotations

import itertools
import random
import secrets as secrets_module

import pytest

from repro import build_network
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.network import Gateway
from repro.faults import CrashPointSpec, FaultPlan, InvariantMonitor, RetryPolicy
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

def _predicate(code: str) -> AttributeEquals:
    """Each method gets its own recipient so its view covers exactly
    its own items — completeness is then auditable per view."""
    return AttributeEquals("to", f"W-{code}")

#: Items each view receives: enough blocks that peer 1 issues at least
#: 30 durable ops, so the sweep covers several checkpoint cycles.
ITEMS_PER_VIEW = 2

#: Snapshot every other block so the sweep exercises many full
#: checkpoint cycles (write + fsync + prune) in few blocks.
SNAPSHOT_INTERVAL = 2


@pytest.fixture
def rearm(monkeypatch):
    """Seeded DRBG + tid counter so every leg draws identical bytes."""

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


def _plan(at_op: int | None) -> FaultPlan:
    points = ()
    if at_op is not None:
        # partial_fraction tears WAL appends mid-record; non-append ops
        # (fsyncs, atomic snapshot writes, prunes) crash
        # cleanly at their boundary.
        points = (
            CrashPointSpec(target=1, at_op=at_op, partial_fraction=0.5),
        )
    return FaultPlan(
        seed=13,
        retry=RetryPolicy(max_attempts=6, timeout_ms=2_000.0, backoff_ms=100.0),
        crash_points=points,
    )


def _leg(plan: FaultPlan):
    """One full run: workload, heal, audit.  Returns (network, print)."""
    network = build_network(
        NetworkConfig(
            latency=SINGLE_REGION,
            real_signatures=False,
            batch_timeout_ms=50.0,
            storage_backend="memory",
            snapshot_interval_blocks=SNAPSHOT_INTERVAL,
            fault_plan=plan.to_json(),
        )
    )
    monitor = InvariantMonitor(network)
    owner = network.register_user("owner")
    managers = {}
    for code in sorted(METHODS):
        manager_cls, mode = METHODS[code]
        manager = manager_cls(Gateway(network, owner))
        manager.create_view(f"v-{code}", _predicate(code), mode)
        managers[code] = manager
    outcomes = [
        managers[code].invoke_with_secret(
            "create_item",
            {"item": f"item-{code}{n}", "owner": f"W-{code}"},
            {"item": f"item-{code}{n}", "from": None, "to": f"W-{code}"},
            f"secret-{code}{n}".encode(),
        )
        for n in range(ITEMS_PER_VIEW)
        for code in sorted(managers)
    ]
    network.faults.heal()
    network.env.run(until=network.env.now + 1_000.0)
    network.verify_convergence()
    # Includes the durability invariant: every stored peer and the
    # orderer must survive a from-store restart byte-identically.
    monitor.check()

    reader_user = network.register_user("bob")
    reader = ViewReader(reader_user, Gateway(network, reader_user))
    verifier = ViewVerifier(Gateway(network, reader_user))
    views = {}
    for code, manager in sorted(managers.items()):
        name = f"v-{code}"
        reader.accept_offchain_grant(manager.grant_access_offchain(name, "bob"))
        if METHODS[code][1] is ViewMode.IRREVOCABLE:
            result = reader.read_irrevocable_view(manager, name)
        else:
            result = reader.read_view(manager, name)
        soundness = verifier.verify_soundness(
            name, _predicate(code), result, manager.concealment
        )
        completeness = verifier.verify_completeness(
            name, _predicate(code), set(result.secrets)
        )
        views[name] = {
            "served": dict(sorted(result.secrets.items())),
            "soundness": (soundness.ok, soundness.checked,
                          tuple(soundness.violations)),
            "completeness": (completeness.ok, completeness.checked,
                             tuple(completeness.missing)),
        }

    reference = network.reference_peer
    fingerprint = {
        "codes": [out.notice.code.value for out in outcomes],
        "tids": [out.tid for out in outcomes],
        "blocks": [
            (block.number, [tx.tid for tx in block.transactions])
            for block in reference.chain
        ],
        "tip": reference.chain.tip_hash.hex(),
        "state_roots": [peer.current_state_root().hex() for peer in network.peers],
        "views": views,
    }
    return network, fingerprint


def test_crash_at_every_durable_op_recovers_byte_identically(rearm):
    rearm()
    network, baseline = _leg(_plan(None))
    total_ops = network.storage.node_store("main-peer1").guard.op_count
    assert total_ops >= 30, "workload too small to sweep all crash windows"
    assert baseline["codes"] == ["valid"] * len(METHODS) * ITEMS_PER_VIEW
    assert all(view["soundness"][0] for view in baseline["views"].values())
    assert all(view["completeness"][0] for view in baseline["views"].values())

    modes = set()
    torn_total = 0
    for at_op in range(1, total_ops + 1):
        rearm()
        crashed, fingerprint = _leg(_plan(at_op))
        store = crashed.storage.node_store("main-peer1")
        assert crashed.faults.stats["storage_crashes"] == 1, at_op
        assert store.guard.fired_at == at_op
        assert fingerprint == baseline, f"divergence after crash at op {at_op}"
        report = crashed.peers[1].last_recovery
        assert report is not None, at_op
        modes.add(report.mode)
        torn_total += store.torn_tails_truncated

    # The sweep genuinely exercised both recovery paths and tore real
    # WAL records along the way.
    assert "snapshot+wal" in modes
    assert torn_total > 0
