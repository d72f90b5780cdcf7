"""Differential suite for the commit backend: occ rebase vs. reference.

Three classes of behaviour are pinned:

- **Conflict-free byte-identity** — with identical seeded randomness
  and tid sequences, the occ backend produces byte-for-byte the same
  chains, state roots, and validation codes as the reference backend
  whenever no MVCC conflict occurs.  The backend may only act at the
  moment a conflict exists.

- **Business-rule conflicts still abort** — a supply-chain transfer
  that loses the race re-executes into a :class:`ChaincodeError` (the
  holder moved), so occ reaches the *same* ``MVCC_CONFLICT`` stamps as
  the reference backend and the chains stay identical even under
  contention.

- **Commutative conflicts rebase** — counter bumps re-execute cleanly
  against the updated state, so occ commits the whole offered load
  where the reference backend keeps one winner per key per block; the
  final business state equals what the reference backend reaches only
  via client-side MVCC retries (satellite: ``mvcc_retry_attempts``).

Plus the durability leg: rebased write sets are WAL-logged and
replayed, so a restart under occ reconstructs the exact post-rebase
state (``verify_restart`` asserts byte-identity against the live peer).
"""

from __future__ import annotations

import itertools
import random
import secrets as secrets_module

import pytest

from repro import build_network
from repro.fabric import occ
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.network import Gateway
from repro.fabric.peer import ValidationCode
from repro.ledger import transaction as transaction_module
from repro.storage import verify_restart
from repro.workload.zipf import CounterContract


@pytest.fixture
def rearm(monkeypatch):
    """Identical randomness and tid sequence for every leg."""

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


def _config(commit_backend, **overrides):
    params = dict(
        latency=SINGLE_REGION,
        real_signatures=False,
        batch_timeout_ms=50.0,
        commit_backend=commit_backend,
    )
    params.update(overrides)
    return NetworkConfig(**params)


def _build(commit_backend, with_counter=False, **overrides):
    network = build_network(_config(commit_backend, **overrides))
    network.track_state_roots = True
    if with_counter:
        network.install_chaincode(CounterContract())
    gateway = Gateway(network, network.register_user("client"))
    return network, gateway


def _wave(network, gateway, calls):
    """Submit ``calls`` concurrently; returns their commit notices."""
    env = network.env
    events = [
        gateway.submit_async(chaincode, fn, args)
        for chaincode, fn, args in calls
    ]
    env.run(until=env.all_of(events))
    return [event.value for event in events]


def _observables(network):
    peer = network.reference_peer
    return {
        "tip": peer.chain.tip_hash.hex(),
        "blocks": [
            (block.number, [tx.tid for tx in block.transactions])
            for block in peer.chain
        ],
        "codes": {
            tid: code.value
            for tid, code in sorted(peer.validation_codes.items())
        },
        "roots": {
            number: root.hex()
            for number, root in sorted(network.state_roots.items())
        },
        "state": network.reference_peer.statedb.snapshot(),
        "sim_now": network.env.now,
    }


# -- the two policies (selection: tests/fabric/test_backend_selectors.py) -------


def test_the_two_policies():
    assert sorted(occ.COMMIT_BACKENDS) == ["occ", "reference"]
    assert all(name == policy.name for name, policy in occ.COMMIT_BACKENDS.items())
    assert not occ.COMMIT_BACKENDS["reference"].rebase_conflicts
    assert occ.COMMIT_BACKENDS["occ"].rebase_conflicts
    assert occ.COMMIT_BACKENDS["occ"].max_rebase_attempts >= 1


def test_network_pins_backend_per_config():
    network, _gateway = _build("occ")
    assert network.commit_backend.name == "occ"
    assert all(peer.commit_backend.name == "occ" for peer in network.peers)


# -- business-outcome comparison ----------------------------------------------


def test_outcome_value_drift_is_allowed():
    assert not occ.business_outcome_changed(
        {"key": "k", "count": 1}, {"key": "k", "count": 7}
    )


def test_outcome_shape_changes_abort():
    assert occ.business_outcome_changed({"count": 1}, {"count": 1, "extra": 2})
    assert occ.business_outcome_changed({"count": 1}, [1])
    assert occ.business_outcome_changed([1, 2], [1, 2, 3])
    assert occ.business_outcome_changed(None, {"count": 1})


def test_outcome_scalars_compare_by_type_only():
    assert not occ.business_outcome_changed(3, 99)
    assert occ.business_outcome_changed(3, "three")


# -- conflict-free byte-identity ----------------------------------------------


def _conflict_free_run(commit_backend):
    network, gateway = _build(commit_backend)
    for start in range(0, 8, 4):
        _wave(
            network,
            gateway,
            [
                (
                    "supply",
                    "create_item",
                    {"item": f"i{start + n}", "owner": "W1"},
                )
                for n in range(4)
            ],
        )
    # Disjoint items: concurrent transfers that never conflict.
    notices = _wave(
        network,
        gateway,
        [
            (
                "supply",
                "transfer",
                {"item": f"i{n}", "sender": "W1", "receiver": "W2"},
            )
            for n in range(4)
        ],
    )
    network.verify_convergence()
    assert all(n.code is ValidationCode.VALID for n in notices)
    return _observables(network)


def test_conflict_free_runs_are_byte_identical(rearm):
    rearm()
    reference = _conflict_free_run("reference")
    rearm()
    occ_leg = _conflict_free_run("occ")
    assert occ_leg == reference
    assert set(reference["codes"].values()) == {"valid"}


# -- conflicting transfers: occ must still abort ------------------------------


def _conflicting_transfer_run(commit_backend):
    network, gateway = _build(commit_backend)
    _wave(
        network,
        gateway,
        [("supply", "create_item", {"item": "hot", "owner": "W1"})],
    )
    notices = _wave(
        network,
        gateway,
        [
            (
                "supply",
                "transfer",
                {"item": "hot", "sender": "W1", "receiver": f"W{n}"},
            )
            for n in (2, 3, 4)
        ],
    )
    network.verify_convergence()
    return (
        _observables(network),
        [notice.code.value for notice in notices],
    )


def test_transfer_conflicts_abort_identically_under_occ(rearm):
    """Re-execution hits the holder check (ChaincodeError), so the occ
    backend reaches the reference backend's exact MVCC stamps."""
    rearm()
    reference, reference_race = _conflicting_transfer_run("reference")
    rearm()
    occ_leg, occ_race = _conflicting_transfer_run("occ")
    assert occ_leg == reference
    assert occ_race == reference_race == [
        "valid",
        "mvcc_conflict",
        "mvcc_conflict",
    ]


# -- commutative conflicts: occ rebases, retry converges ----------------------

BUMPS = [("a", 1), ("a", 2), ("a", 3), ("b", 5), ("a", 4), ("b", 7)]
EXPECTED = {"a": 10, "b": 12}


def _bump_wave(network, gateway):
    return _wave(
        network,
        gateway,
        [
            ("counter", "bump", {"key": key, "amount": amount})
            for key, amount in BUMPS
        ],
    )


def _final_counters(gateway):
    return {
        key: gateway.query("counter", "get", {"key": key}) for key in EXPECTED
    }


def test_occ_commits_every_concurrent_bump(rearm):
    rearm()
    network, gateway = _build("occ", with_counter=True)
    notices = _bump_wave(network, gateway)
    network.verify_convergence()
    assert [n.code.value for n in notices] == ["valid"] * len(BUMPS)
    assert _final_counters(gateway) == EXPECTED
    outcomes = network.phase_wall.commit_outcomes()
    assert outcomes["totals"]["aborted"] == 0
    # One winner per key commits unrebased; the other four rebase.
    assert outcomes["totals"]["rebased"] == len(BUMPS) - len(EXPECTED)
    assert outcomes["rebase_rate"] > 0


def test_reference_keeps_first_committer_wins(rearm):
    rearm()
    network, gateway = _build("reference", with_counter=True)
    notices = _bump_wave(network, gateway)
    network.verify_convergence()
    codes = [n.code.value for n in notices]
    assert codes.count("valid") == len(EXPECTED)  # one winner per key
    assert codes.count("mvcc_conflict") == len(BUMPS) - len(EXPECTED)
    finals = _final_counters(gateway)
    assert finals != EXPECTED  # the aborted bumps are simply lost
    assert finals["a"] == 1 and finals["b"] == 5  # block-order winners


def test_client_retry_converges_to_the_occ_outcome(rearm):
    """The reference backend plus bounded seeded client retries reaches
    the same final business state occ reaches in one block."""
    rearm()
    network, gateway = _build(
        "reference", with_counter=True, mvcc_retry_attempts=len(BUMPS)
    )
    notices = _bump_wave(network, gateway)
    network.verify_convergence()
    assert [n.code.value for n in notices] == ["valid"] * len(BUMPS)
    assert _final_counters(gateway) == EXPECTED
    assert network.mvcc_retries > 0
    # Retried submissions commit under fresh tids (the conflicted ones
    # are already on chain), so chain length exceeds the occ leg's.
    codes = network.reference_peer.validation_codes
    assert sum(
        1 for code in codes.values() if code is ValidationCode.MVCC_CONFLICT
    ) == network.mvcc_retries


def test_retry_budget_exhaustion_surfaces_the_conflict(rearm):
    """One retry cannot clear a four-deep pileup on one key: the last
    losers still see MVCC_CONFLICT after the budget runs out."""
    rearm()
    network, gateway = _build(
        "reference", with_counter=True, mvcc_retry_attempts=1
    )
    notices = _wave(
        network,
        gateway,
        [
            ("counter", "bump", {"key": "k", "amount": 1})
            for _ in range(4)
        ],
    )
    codes = [n.code.value for n in notices]
    assert codes.count("valid") == 2  # original winner + one retry winner
    assert codes.count("mvcc_conflict") == 2


# -- durability: rebased rwsets are logged and replayed ------------------------


def test_restart_replays_rebased_write_sets(rearm):
    rearm()
    network, gateway = _build(
        "occ", with_counter=True, storage_backend="memory"
    )
    _bump_wave(network, gateway)
    _bump_wave(network, gateway)
    network.verify_convergence()
    assert _final_counters(gateway) == {
        key: 2 * total for key, total in EXPECTED.items()
    }
    for peer in network.peers:
        report = verify_restart(network, peer)
        assert report.mode in ("snapshot+wal", "wal-replay")
        assert report.revalidated_blocks == 0


def test_restart_without_rebases_is_unaffected(rearm):
    """Reference-backend WAL records carry no rebased field, and their
    replay is byte-identical to the pre-occ behaviour."""
    rearm()
    network, gateway = _build(
        "reference", with_counter=True, storage_backend="memory"
    )
    _bump_wave(network, gateway)
    network.verify_convergence()
    store = network.reference_peer.store
    records, _blocks, _torn, _end = store.replay_blocks()
    assert all("rebased" not in record for record in records)
    for peer in network.peers:
        verify_restart(network, peer)
