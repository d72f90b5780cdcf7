"""Performance guards for the ledger fast path.

These don't measure wall-clock (too flaky for CI); they count hash
evaluations, which is the deterministic cost driver.  The contract
under guard: per-block state-root maintenance scales with the number
of *dirty* keys (times log n), never with total state size — the
property that makes ``track_state_roots`` affordable on long runs.
"""

from __future__ import annotations

import pytest

from repro import build_network
from repro.crypto import merkle
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.network import Gateway
from repro.fabric.peer import Peer
from repro.ledger import merkle_state, transaction
from repro.ledger.merkle_state import IncrementalStateDigest
from repro.ledger.statedb import StateDatabase, Version


@pytest.fixture
def count_node_hashes(monkeypatch):
    """Patch ``merkle.node_hash`` with a counting wrapper.

    Both tree classes resolve ``node_hash`` as a module global at call
    time, so internal recomputation is counted too.
    """
    counter = {"calls": 0}
    real = merkle.node_hash

    def counting(left: bytes, right: bytes) -> bytes:
        counter["calls"] += 1
        return real(left, right)

    monkeypatch.setattr(merkle, "node_hash", counting)

    def read_and_reset() -> int:
        calls, counter["calls"] = counter["calls"], 0
        return calls

    return read_and_reset


def _digest_over(n_keys: int) -> tuple[StateDatabase, IncrementalStateDigest]:
    db = StateDatabase()
    for i in range(n_keys):
        db.put(f"k~{i:06d}", i, Version(0, i))
    digest = IncrementalStateDigest(db)
    digest.root()  # fold the initial state so the next root is incremental
    return db, digest


def _touch(db: StateDatabase, n_keys: int, dirty: int, stamp: int) -> None:
    """Update ``dirty`` existing keys spread evenly across the keyspace."""
    for j in range(dirty):
        index = (j * n_keys) // dirty
        db.put(f"k~{index:06d}", f"new-{stamp}-{j}", Version(stamp, j))


def test_block_cost_scales_with_dirty_keys_not_state_size(count_node_hashes):
    """Same dirty count, 16x the state: node hashes grow ~log, not 16x."""
    dirty = 16
    small_n, large_n = 256, 4096

    db_small, digest_small = _digest_over(small_n)
    db_large, digest_large = _digest_over(large_n)
    count_node_hashes()  # discard setup cost

    _touch(db_small, small_n, dirty, stamp=1)
    digest_small.root()
    small_calls = count_node_hashes()

    _touch(db_large, large_n, dirty, stamp=1)
    digest_large.root()
    large_calls = count_node_hashes()

    assert small_calls > 0
    # O(dirty * log n): log2(4096)/log2(256) = 1.5; a linear rebuild
    # would be 16x.  3x leaves room for path-merge variation.
    assert large_calls <= 3 * small_calls, (
        f"{large_calls} node hashes on 4096 keys vs {small_calls} on 256 — "
        "per-block cost is tracking state size, not dirty keys"
    )
    # ... and nowhere near a full rebuild of the large tree.
    assert large_calls < large_n // 4


def test_unchanged_root_costs_no_hashes(count_node_hashes):
    """root() with nothing dirty is a pure lookup."""
    db, digest = _digest_over(512)
    count_node_hashes()
    before = digest.root()
    assert count_node_hashes() == 0
    # Rewriting the same value is recognised as clean at flush time.
    db.put("k~000100", 100, Version(1, 0))
    assert digest.root() == before
    assert count_node_hashes() <= 1


def test_tail_insert_cost_is_local(count_node_hashes):
    """Appending keys at the sorted tail touches only the tail's paths."""
    n = 2048
    db, digest = _digest_over(n)
    count_node_hashes()
    for j in range(8):
        db.put(f"z~{j:04d}", j, Version(1, j))  # sorts after every k~ key
    digest.root()
    calls = count_node_hashes()
    assert calls < n // 4, (
        f"{calls} node hashes for an 8-key tail insert into {n} keys"
    )


# -- encode once, hash on demand ------------------------------------------------
#
# Same idea one level up: count runs of the two canonical encoders on a
# live network.  A transaction is encoded once on its way from
# endorsement to commit no matter how many stages and peers read its
# size or Merkle leaf, and state leaves are encoded only when somebody
# asks for a root.


@pytest.fixture
def count_encodes(monkeypatch):
    """Count runs of the transaction encoder and the state-leaf encoder.

    Both are module globals resolved at call time, like ``node_hash``.
    """
    counts = {"tx": 0, "leaf": 0}
    real_tx, real_leaf = transaction._canonical_json, merkle_state._encode_entry

    def counting_tx(value):
        counts["tx"] += 1
        return real_tx(value)

    def counting_leaf(key, value):
        counts["leaf"] += 1
        return real_leaf(key, value)

    monkeypatch.setattr(transaction, "_canonical_json", counting_tx)
    monkeypatch.setattr(merkle_state, "_encode_entry", counting_leaf)
    return counts


def _commit_plain_invokes(
    storage_backend: str, requests: int = 200, track_state_roots: bool = False
):
    """2 peers, endorsement policy 1: commit ``requests`` plain invokes."""
    network = build_network(
        NetworkConfig(
            peer_count=2,
            endorsement_policy=1,
            latency=SINGLE_REGION,
            real_signatures=False,
            batch_timeout_ms=50.0,
            block_max_transactions=40,
            storage_backend=storage_backend,
            # Counted below: the stores of one orderer and two peers
            # (an ambient pbft would add its own consensus log).
            orderer_backend="raft",
        )
    )
    network.track_state_roots = track_state_roots
    gateway = Gateway(network, network.register_user("client"))
    events = [
        gateway.submit_async(
            "supply", "create_item", {"item": f"item-{i}", "owner": "n0"}
        )
        for i in range(requests)
    ]
    network.env.run(until=network.env.all_of(events))
    network.env.run()  # let the second peer finish its last block
    assert all(event.value.code.value == "valid" for event in events)
    assert [len(list(peer.chain.transactions())) for peer in network.peers] == [
        requests
    ] * 2
    assert len(network.block_log) == requests // 40
    return network


def test_transaction_encoded_once_and_no_state_leaf_without_a_root(count_encodes):
    network = _commit_plain_invokes(storage_backend="none")
    assert count_encodes["tx"] == 200
    assert count_encodes["leaf"] == 0
    # One root request hashes each dirty key once (every invoke wrote a
    # distinct key); asking again hashes nothing.
    peer = network.reference_peer
    root = peer.current_state_root()
    assert count_encodes["leaf"] == len(peer.statedb) == 200
    assert peer.current_state_root() == root
    assert count_encodes["leaf"] == 200
    assert count_encodes["tx"] == 200


def test_transaction_encoded_once_with_durable_peers(count_encodes):
    """The orderer's WAL record and both replicas' share the cutter's bytes."""
    network = _commit_plain_invokes(storage_backend="memory")
    assert count_encodes["tx"] == 200
    nodes = network.storage.summary()["nodes"]
    assert len(nodes) == 3  # orderer + 2 peers
    assert all(
        node["records_logged"] == len(network.block_log) for node in nodes.values()
    )


def test_tracked_roots_encode_leaves_only_outside_the_commit_call(
    count_encodes, monkeypatch
):
    """With a root recorded per block, each write is encoded once, when
    the root is asked for — never inside ``Peer.validate_and_commit``."""
    inside_commit = []
    real_commit = Peer.validate_and_commit

    def watched_commit(self, *args, **kwargs):
        before = count_encodes["leaf"]
        try:
            return real_commit(self, *args, **kwargs)
        finally:
            inside_commit.append(count_encodes["leaf"] - before)

    monkeypatch.setattr(Peer, "validate_and_commit", watched_commit)
    network = _commit_plain_invokes(storage_backend="none", track_state_roots=True)
    assert len(inside_commit) == 2 * len(network.block_log)
    assert set(inside_commit) == {0}
    assert len(network.state_roots) == len(network.block_log)
    assert count_encodes["leaf"] == len(network.reference_peer.statedb) == 200
