"""Store-based restart: snapshot + WAL suffix, torn tails, disk mode.

These tests drive a real network with the storage backend on and then
restart peers from their durable stores, asserting byte-identity with
the live replicas — the durability contract the invariant monitor
enforces continuously.
"""

from __future__ import annotations

import pytest

from repro.errors import BlockValidationError, StorageError
from repro.fabric.chaincode import Chaincode
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.network import FabricNetwork
from repro.faults import CrashPointSpec, FaultPlan, InvariantMonitor, recovery
from repro.sim import Environment
from repro.storage import MemoryFilesystem, NodeStore, verify_restart


class KV(Chaincode):
    name = "kv"

    def fn_put(self, ctx, key, value):
        ctx.put_state(key, value)
        return "ok"

    def fn_bump(self, ctx, key):
        ctx.put_state(key, (ctx.get_state(key) or 0) + 1)
        return "ok"


def _network(
    backend="memory", storage_dir=None, interval=3, plan=None, **overrides
):
    env = Environment()
    config = NetworkConfig(
        latency=SINGLE_REGION,
        real_signatures=False,
        batch_timeout_ms=50.0,
        storage_backend=backend,
        storage_dir=storage_dir,
        snapshot_interval_blocks=interval,
        fault_plan=plan.to_json() if plan is not None else None,
        **overrides,
    )
    network = FabricNetwork(env, config)
    network.install_chaincode(KV())
    return network


def _workload(network, n, user=None):
    user = user or network.register_user("alice")
    for i in range(n):
        notice = network.invoke_sync(
            user, "kv", "put", {"key": f"k{i % 7}", "value": i}
        )
        assert notice.code.value == "valid"
    return user


def test_restart_uses_snapshot_plus_wal_suffix():
    network = _network(interval=3)
    _workload(network, 10)
    for peer in network.peers:
        report = verify_restart(network, peer)
        assert report.mode == "snapshot+wal"
        assert report.snapshot_height == 9
        assert report.chain_blocks_loaded == 10
        assert report.state_blocks_replayed == 1  # just the post-checkpoint delta
        assert report.revalidated_blocks == 0
        assert not report.torn_tail


def test_restart_without_snapshot_replays_wal():
    network = _network(interval=0)  # snapshots disabled
    _workload(network, 5)
    report = verify_restart(network, network.peers[1])
    assert report.mode == "wal-replay"
    assert report.chain_blocks_loaded == 5
    assert report.state_blocks_replayed == 5


def test_disk_backend_persists_real_files(tmp_path):
    network = _network(backend="disk", storage_dir=str(tmp_path))
    _workload(network, 7)
    assert (tmp_path / "main" / "main-peer1" / "wal.log").is_file()
    snaps = list((tmp_path / "main" / "main-peer1").glob("snap-*.json"))
    assert snaps, "no snapshot files on disk"
    for peer in network.peers:
        report = verify_restart(network, peer)
        assert report.mode == "snapshot+wal"


def test_torn_wal_tail_does_not_poison_restart():
    """Regression for the torn-write case: a crash mid-WAL-record must
    leave a restartable peer — CRC detects the tear, recovery truncates
    it, and the lost block is re-fetched from the ordered log."""
    plan = FaultPlan(
        seed=5,
        retry=None,
        crash_points=(
            # Each block costs two durable ops (append + fsync), so op 7
            # is the fourth block's WAL append — a torn write mid-record.
            CrashPointSpec(
                target=1, at_op=7, partial_fraction=0.6, recover_after_ms=400.0
            ),
        ),
    )
    network = _network(plan=plan, interval=4)
    monitor = InvariantMonitor(network)
    _workload(network, 10)
    network.faults.heal()
    network.env.run(until=network.env.now + 2_000.0)
    monitor.check()

    store = network.storage.node_store("main-peer1")
    assert network.faults.stats["storage_crashes"] == 1
    assert store.guard.fired_at == 7
    assert store.torn_tails_truncated == 1
    peer = network.peers[1]
    assert peer.last_recovery is not None
    assert peer.last_recovery.torn_tail is True
    assert peer.last_recovery.refetched_blocks >= 1
    assert peer.chain.height == network.reference_peer.chain.height
    # The repaired WAL is durable again: a fresh restart needs no repair.
    report = verify_restart(network, peer)
    assert not report.torn_tail


def test_corrupted_wal_byte_flip_recovers_via_refetch():
    """A flipped byte mid-log invalidates that record's CRC: recovery
    keeps the intact prefix, discards the snapshot if the decoded chain
    no longer reaches it, and catch-up re-fetches (and re-logs) the
    difference."""
    network = _network(interval=3)
    _workload(network, 8)
    peer = network.peers[1]
    store = peer.store
    path = store.wal.path
    raw = bytearray(store.fs.read(path))
    raw[len(raw) // 2] ^= 0xFF
    store.fs.write(path, bytes(raw))

    recovery.recover_peer(network, peer)
    report = peer.last_recovery
    assert report.torn_tail is True
    assert report.chain_blocks_loaded < 8
    assert report.refetched_blocks == 8 - report.chain_blocks_loaded
    assert peer.chain.height == 8
    assert peer.chain.tip_hash == network.reference_peer.chain.tip_hash
    assert peer.statedb.snapshot() == network.reference_peer.statedb.snapshot()
    # Catch-up re-commits go through the normal commit path, so the
    # repaired WAL covers the full chain again.
    assert verify_restart(network, peer).chain_blocks_loaded == 8


def test_tampered_snapshot_state_falls_back_to_wal_replay():
    """A snapshot whose state contradicts its recorded root (corruption
    the checksum cannot see, e.g. tampering before the checksum was
    computed) is discarded in favour of full WAL replay."""
    network = _network(interval=3)
    _workload(network, 10)
    peer = network.peers[1]
    shadow = peer.empty_replica()
    # Corrupt the newest snapshot's body but keep its checksum valid by
    # rewriting the whole envelope.
    import json

    from repro.crypto.hashing import sha256
    from repro.storage import load_latest, snapshot_name

    store = peer.store
    snap = load_latest(store.fs, store.root)
    path = f"{store.root}/{snapshot_name(snap.height)}"
    envelope = json.loads(store.fs.read(path))
    envelope["content"]["body"]["state"][0][1] = "tampered"
    canonical = json.dumps(
        envelope["content"], sort_keys=True, separators=(",", ":")
    ).encode()
    envelope["checksum"] = sha256(canonical).hex()
    store.fs.write(
        path,
        json.dumps(
            {"checksum": envelope["checksum"], "content": envelope["content"]},
            sort_keys=True,
            separators=(",", ":"),
        ).encode(),
    )

    report = store.recover_peer(shadow)
    assert report.mode == "wal-replay"
    assert report.state_blocks_replayed == 10
    assert shadow.current_state_root() == peer.current_state_root()
    assert shadow.statedb.snapshot() == peer.statedb.snapshot()


def test_verify_restart_requires_a_store():
    network = _network(backend="none")
    _workload(network, 2)
    with pytest.raises(StorageError):
        verify_restart(network, network.peers[1])


def test_storeless_network_keeps_legacy_genesis_replay():
    network = _network(backend="none")
    _workload(network, 6)
    peer = network.peers[1]
    root_before = peer.current_state_root()
    replayed = peer.recover_from_chain(
        network._peer_keys,
        network._peer_secrets,
        policy=network.config.endorsement_policy,
    )
    assert replayed == 6
    assert peer.last_recovery.mode == "genesis-replay"
    assert peer.last_recovery.revalidated_blocks == 6
    assert peer.current_state_root() == root_before


def test_genesis_replay_revalidates_from_bytes():
    """A restart trusts no size or digest a transaction retained: one
    written through after it was encoded fails the replay."""
    network = _network(backend="none")
    _workload(network, 3)
    peer = network.peers[1]
    peer.chain.block(1).transactions[0].nonsecret["evil"] = True
    peer.chain.block(1).validate_structure()  # the commit path would pass it
    with pytest.raises(BlockValidationError, match="block 1"):
        peer.recover_from_chain(
            network._peer_keys,
            network._peer_secrets,
            policy=network.config.endorsement_policy,
        )


def test_log_block_with_a_supplied_encoding_writes_the_same_record():
    network = _network(backend="none")
    _workload(network, 2)
    block = network.block_log[1]
    txs = [tx.serialize().decode("utf-8") for tx in block.transactions]

    def logged(**supplied):
        store = NodeStore(MemoryFilesystem(), "main", "node")
        store.log_block(block, **supplied)
        return store.wal.size(), store.replay_kind("block")

    assert logged(txs=txs) == logged()
    with pytest.raises(StorageError, match="encoded transactions"):
        logged(txs=txs + txs)
