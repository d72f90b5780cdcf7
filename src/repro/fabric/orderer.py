"""Ordering service: batching endorsed transactions into blocks.

Models Fabric's Raft-backed orderer.  Transactions accumulate in a
batch that is *cut* into a block when any of three thresholds is hit —
maximum transaction count, maximum accumulated bytes, or the batch
timeout since the first pending transaction (Fabric's
``BatchSize``/``BatchTimeout``).  The byte threshold is what makes
transactions carrying data for many views reduce the number of
transactions per block (the paper's explanation of Fig 10).

This module holds the *functional* cutter; the timed loop that feeds it
lives in :mod:`repro.fabric.network`.  It also builds the consensus
group a cut batch is replicated through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fabric.config import NetworkConfig
from repro.ledger.block import GENESIS_PREVIOUS_HASH, Block
from repro.ledger.transaction import Transaction
from repro.sim import Environment, Event

#: Placeholder state root: Fabric headers do not carry a world-state
#: digest; peers agree on state roots out of band (see
#: FabricNetwork.state_roots), which is the integrity anchor the paper's
#: view contracts rely on.
NO_STATE_ROOT = b"\x00" * 32


@dataclass
class BatchCutDecision:
    """Why a batch was cut (used in tests and diagnostics)."""

    reason: str  # "count" | "bytes" | "timeout" | "idle"
    transactions: list[Transaction]
    #: Canonical encoding of each transaction, in batch order: the bytes
    #: the cutter measured, handed on so the block's WAL records need
    #: not encode the transactions again.
    encoded: list[bytes]


class BlockCutter:
    """Accumulates transactions and decides when a block is full."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        #: ``(transaction, canonical encoding)`` in arrival order.
        self._pending: list[tuple[Transaction, bytes]] = []
        self._pending_bytes = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    def add(self, tx: Transaction) -> None:
        # The one place the pipeline encodes a transaction: the encoding
        # also leaves the size and Merkle leaf digest on ``tx``, which is
        # all the block builder and the validators read afterwards.
        raw = tx.serialize()
        self._pending.append((tx, raw))
        self._pending_bytes += len(raw)

    def clear(self) -> None:
        """Drop the pending batch (the orderer lost its memory)."""
        self._pending.clear()
        self._pending_bytes = 0

    def should_cut(self) -> str | None:
        """Return the cut reason if a threshold is met, else None."""
        if len(self._pending) >= self.config.block_max_transactions:
            return "count"
        if self._pending_bytes >= self.config.block_max_bytes:
            return "bytes"
        return None

    def cut(self, reason: str) -> BatchCutDecision:
        """Remove and return up to one block's worth of transactions.

        At least one transaction is always taken (a single oversized
        transaction still forms a block of its own).
        """
        max_count = self.config.block_max_transactions
        max_bytes = self.config.block_max_bytes
        taken = 0
        batch_bytes = 0
        for _tx, raw in self._pending:
            if taken and (
                taken >= max_count or batch_bytes + len(raw) > max_bytes
            ):
                break
            taken += 1
            batch_bytes += len(raw)
        batch = self._pending[:taken]
        del self._pending[:taken]
        self._pending_bytes -= batch_bytes
        return BatchCutDecision(
            reason=reason,
            transactions=[tx for tx, _raw in batch],
            encoded=[raw for _tx, raw in batch],
        )


@dataclass
class OrderingService:
    """Assembles cut batches into hash-linked blocks."""

    config: NetworkConfig
    _next_number: int = 0
    _tip_hash: bytes = GENESIS_PREVIOUS_HASH
    blocks_cut: int = 0
    cut_reasons: dict[str, int] = field(
        default_factory=lambda: {"count": 0, "bytes": 0, "timeout": 0, "idle": 0}
    )

    def resume_after(self, blocks: list[Block]) -> None:
        """Continue the chain after ``blocks`` (empty: from genesis)."""
        self._next_number = len(blocks)
        self._tip_hash = blocks[-1].hash() if blocks else GENESIS_PREVIOUS_HASH

    def build_block(self, decision: BatchCutDecision, timestamp: float) -> Block:
        """Turn one cut batch into the next block of the chain."""
        block = Block.build(
            number=self._next_number,
            previous_hash=self._tip_hash,
            transactions=decision.transactions,
            state_root=NO_STATE_ROOT,
            timestamp=timestamp,
        )
        self._next_number += 1
        self._tip_hash = block.hash()
        self.blocks_cut += 1
        self.cut_reasons[decision.reason] = (
            self.cut_reasons.get(decision.reason, 0) + 1
        )
        return block


class FixedDelayConsensus:
    """The modelled ordering service: agreeing on a batch takes
    ``delay_ms`` and cannot fail.  It answers what the real groups
    (:class:`~repro.fabric.raft.RaftCluster`,
    :class:`~repro.fabric.pbft.PBFTCluster`) answer, with no replica
    behind it to crash, partition or corrupt."""

    kind = "fixed"
    nodes = ()

    def __init__(self, env: Environment, delay_ms: float):
        self.env = env
        self.delay_ms = delay_ms

    def replicate(self, payload) -> Event:
        return self.env.timeout(self.delay_ms)

    def heal(self) -> None:
        """Nothing to repair."""


def build_consensus(
    env: Environment,
    config: NetworkConfig,
    backend: str,
    chain_name: str,
    storage=None,
):
    """The consensus group of one channel's orderers.  ``backend`` is
    :func:`~repro.fabric.config.resolve_backends`' choice; "raft" is the
    real protocol under ``config.use_raft`` and its fixed-delay model
    otherwise.  A protocol module is imported only when chosen.  With a
    :class:`~repro.storage.StorageRuntime`, pbft write-ahead-logs its
    per-view log and commit certificates, so the consensus audit trail
    survives restarts too."""
    if backend == "pbft":
        from repro.fabric.pbft import PBFTCluster

        return PBFTCluster(
            env,
            node_count=max(4, config.orderer_count),
            consensus_ms=config.ordering_consensus_ms,
            chain_name=chain_name,
            store=None if storage is None else storage.pbft_store,
        )
    if config.use_raft:
        from repro.fabric.raft import RaftCluster

        return RaftCluster(
            env,
            node_count=config.orderer_count,
            rtt_ms=config.latency.orderer_to_orderer,
        )
    return FixedDelayConsensus(env, config.ordering_consensus_ms)
