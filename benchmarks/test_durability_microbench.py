"""Durability microbenchmark: restart cost, genesis replay vs snapshot+WAL.

Builds one peer with a 1k- and a 5k-block committed chain and measures
wall-clock restart time two ways:

- **genesis replay** (the pre-storage model): every block re-runs the
  full validation path — endorsement checks, MVCC, state writes — from
  block 0, so restart cost grows with chain length;
- **snapshot + WAL suffix** (the durable store): the newest verified
  checkpoint bulk-loads world state, the WAL is parsed structurally
  (hash-link checks only, no re-validation), and state replay touches
  just the post-checkpoint delta.

Wall-clock favours the snapshot path and the gap widens with history,
but the *hard* guarantees asserted here are the work counters: the
snapshot path re-validates zero blocks and replays at most one
checkpoint interval of state regardless of chain length, while genesis
replay re-validates all ``n``.  Both paths must land on byte-identical
tip hash and state root.

Results are recorded under ``durability`` in ``BENCH_micro.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_durability_microbench.py -v -s
"""

from __future__ import annotations

import gc
import time

from repro.crypto.rsa import generate_keypair
from repro.fabric.chaincode import Chaincode, ChaincodeRegistry
from repro.fabric.endorser import Proposal, assemble_transaction
from repro.fabric.identity import User
from repro.fabric.peer import Peer
from repro.ledger.block import Block
from repro.storage import MemoryFilesystem, NodeStore

#: Describes this file's rows in ``BENCH_micro.json``.
_DESCRIPTION = (
    "restart: genesis replay vs snapshot + WAL suffix at 1k and 5k blocks; "
    "wall-clock is machine-dependent, the work counters are exact"
)

SCALES = (1_000, 5_000)
TXS_PER_BLOCK = 2
SNAPSHOT_INTERVAL = 100
#: Distinct state keys the workload cycles through — world state stays
#: small and bounded so snapshots measure the protocol, not bulk I/O.
STATE_KEYS = 101


class KV(Chaincode):
    name = "kv"

    def fn_put(self, ctx, key, value):
        ctx.put_state(key, value)
        return "ok"


_REGISTRY = ChaincodeRegistry()
_REGISTRY.install(KV())
_IDENTITY = User(user_id="bench-peer", keypair=generate_keypair(512))


def _build_peer(n_blocks: int, with_store: bool):
    """Commit ``n_blocks`` endorsed KV blocks through the normal path."""
    peer = Peer(
        "bench-peer",
        _IDENTITY,
        _REGISTRY,
        chain_name="bench",
        real_signatures=False,
    )
    store = None
    if with_store:
        store = NodeStore(
            MemoryFilesystem(),
            "bench",
            "bench-peer",
            snapshot_interval=SNAPSHOT_INTERVAL,
        )
        peer.attach_store(store)
    secrets = {"bench-peer": peer.mac_secret}
    counter = 0
    for number in range(n_blocks):
        txs = []
        for _ in range(TXS_PER_BLOCK):
            proposal = Proposal(
                chaincode="kv",
                fn="put",
                args={"key": f"k{counter % STATE_KEYS}", "value": counter},
                creator="bench",
                # Pinned tid: both legs build byte-identical chains.
                tid=f"bench-{counter:07d}",
            )
            txs.append(assemble_transaction(proposal, [peer.endorse(proposal)]))
            counter += 1
        block = Block.build(
            number=peer.chain.height,
            previous_hash=peer.chain.tip_hash,
            transactions=txs,
            state_root=b"\x00" * 32,
            timestamp=float(number),
        )
        peer.validate_and_commit(block, {}, secrets, policy=1)
    return peer, store, secrets


#: Wall-clock is min-of-N: restart takes tens to hundreds of
#: milliseconds, and a shared machine (or an unlucky GC pass over a
#: multi-thousand-block object graph) can inflate a single run several
#: fold.  The minimum is the honest estimate of the work's cost.
REPETITIONS = 5


def _timed(fn) -> float:
    best = float("inf")
    for _ in range(REPETITIONS):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
    return best


def test_restart_genesis_replay_vs_snapshot_wal(record):
    rows = {}
    for n_blocks in SCALES:
        # Leg 1: legacy model — the chain object survives, every block
        # re-validates from genesis.
        legacy, _, secrets = _build_peer(n_blocks, with_store=False)
        tip, root = legacy.chain.tip_hash, legacy.current_state_root()
        t_genesis = _timed(
            lambda: legacy.recover_from_chain({}, secrets, policy=1)
        )
        legacy_report = legacy.last_recovery
        assert legacy_report.mode == "genesis-replay"
        assert legacy_report.revalidated_blocks == n_blocks
        assert (legacy.chain.tip_hash, legacy.current_state_root()) == (tip, root)
        del legacy
        gc.collect()  # keep the next leg's timings off this leg's heap

        # Leg 2: durable store — newest snapshot + WAL suffix into a
        # cold shadow peer (its memory is gone; only the store remains).
        durable, store, _ = _build_peer(n_blocks, with_store=True)
        assert durable.chain.tip_hash == tip  # same workload, same chain
        shadows: list = []

        def restart():
            # Replace (not append) the previous repetition's shadow:
            # keeping several recovered 5k-block object graphs alive
            # visibly slows later repetitions' allocations.
            shadow = Peer(
                "bench-peer",
                _IDENTITY,
                _REGISTRY,
                chain_name="bench",
                real_signatures=False,
            )
            shadows[:] = [(shadow, store.recover_peer(shadow))]

        t_snapshot = _timed(restart)
        shadow, report = shadows[-1]
        assert report.mode == "snapshot+wal"
        assert report.revalidated_blocks == 0
        assert report.state_blocks_replayed <= SNAPSHOT_INTERVAL
        assert report.chain_blocks_loaded == n_blocks
        assert shadow.chain.tip_hash == tip
        assert shadow.current_state_root() == root
        rows[f"blocks_{n_blocks}"] = {
            "blocks": n_blocks,
            "txs": n_blocks * TXS_PER_BLOCK,
            "wal_bytes": store.wal.size(),
            "snapshot_height": report.snapshot_height,
            "state_blocks_replayed": report.state_blocks_replayed,
            "genesis_replay_s": round(t_genesis, 4),
            "genesis_revalidated_blocks": legacy_report.revalidated_blocks,
            "snapshot_wal_s": round(t_snapshot, 4),
            "speedup": round(t_genesis / t_snapshot, 2),
        }
        del durable, store, shadow, shadows
        gc.collect()

    small, large = (rows[f"blocks_{n}"] for n in SCALES)
    # The protocol-level guarantee, restated across scales: a 5x longer
    # chain replays no more state after restart than the short one.
    assert large["state_blocks_replayed"] <= SNAPSHOT_INTERVAL
    assert small["state_blocks_replayed"] <= SNAPSHOT_INTERVAL
    # Wall-clock: re-validating everything must not beat the snapshot
    # path at either scale (generous floor; ratios in the JSON).
    assert large["speedup"] > 1.0, rows
    record("durability", _DESCRIPTION, {"restart_cost": {
        "txs_per_block": TXS_PER_BLOCK,
        "snapshot_interval_blocks": SNAPSHOT_INTERVAL,
        "state_keys": STATE_KEYS,
        "rows": rows,
    }})
