"""The blockchain: an append-only, hash-linked sequence of blocks.

Provides genesis creation, append with link validation, full-chain
integrity verification, transaction lookup, and byte accounting for the
storage-overhead experiments.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import (
    BlockValidationError,
    ChainIntegrityError,
    TransactionNotFoundError,
)
from repro.ledger.block import GENESIS_PREVIOUS_HASH, Block
from repro.ledger.transaction import Transaction


class Blockchain:
    """An append-only chain of blocks with an index over transactions."""

    def __init__(self, name: str = "main"):
        self.name = name
        self._blocks: list[Block] = []
        self._tx_index: dict[str, tuple[int, int]] = {}  # tid -> (block, pos)
        self._total_bytes = 0  # running sum of block sizes

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    @property
    def height(self) -> int:
        """Number of blocks on the chain."""
        return len(self._blocks)

    @property
    def tip_hash(self) -> bytes:
        """Hash of the latest block (genesis sentinel when empty)."""
        if not self._blocks:
            return GENESIS_PREVIOUS_HASH
        return self._blocks[-1].hash()

    def append(
        self,
        block: Block,
        *,
        prevalidated: bool = False,
        size_bytes: int | None = None,
    ) -> None:
        """Validate and append ``block``.

        ``prevalidated`` asserts that :meth:`Block.validate_structure`
        has already been run on this exact block object (the block's
        validation memo checks it once and shares the result across
        replicas); ``size_bytes`` likewise passes in a precomputed
        ``block.size_bytes``.  Both are pure functions of the block, so
        skipping the recomputation cannot change what is accepted.
        Linkage, numbering, and duplicate-tid checks always run — they
        depend on *this* chain, not just the block.

        Raises
        ------
        BlockValidationError
            If the block is internally inconsistent, numbered wrongly,
            or does not link to the current tip.
        """
        if not prevalidated:
            block.validate_structure()
        expected_number = len(self._blocks)
        if block.number != expected_number:
            raise BlockValidationError(
                f"chain {self.name!r}: expected block {expected_number}, "
                f"got {block.number}"
            )
        if block.header.previous_hash != self.tip_hash:
            raise BlockValidationError(
                f"chain {self.name!r}: block {block.number} does not link to tip"
            )
        index: dict[str, tuple[int, int]] = {}
        for position, tx in enumerate(block.transactions):
            if tx.tid in self._tx_index or tx.tid in index:
                raise BlockValidationError(
                    f"duplicate transaction id {tx.tid!r} in block {block.number}"
                )
            index[tx.tid] = (block.number, position)
        self._tx_index.update(index)
        self._blocks.append(block)
        self._total_bytes += block.size_bytes if size_bytes is None else size_bytes

    def block(self, number: int) -> Block:
        """The block at height ``number``."""
        if not 0 <= number < len(self._blocks):
            raise ChainIntegrityError(
                f"chain {self.name!r} has no block {number} (height {self.height})"
            )
        return self._blocks[number]

    def get_transaction(self, tid: str) -> Transaction:
        """Look up a committed transaction by id.

        Raises
        ------
        TransactionNotFoundError
            If no committed transaction has this id.
        """
        location = self._tx_index.get(tid)
        if location is None:
            raise TransactionNotFoundError(
                f"transaction {tid!r} not on chain {self.name!r}"
            )
        block_number, position = location
        return self._blocks[block_number].transactions[position]

    def has_transaction(self, tid: str) -> bool:
        return tid in self._tx_index

    def locate(self, tid: str) -> tuple[int, int]:
        """(block number, position) of a committed transaction."""
        location = self._tx_index.get(tid)
        if location is None:
            raise TransactionNotFoundError(
                f"transaction {tid!r} not on chain {self.name!r}"
            )
        return location

    def transactions(self) -> Iterator[Transaction]:
        """All committed transactions in commit order."""
        for block in self._blocks:
            yield from block.transactions

    @property
    def transaction_count(self) -> int:
        return len(self._tx_index)

    def verify_integrity(self) -> None:
        """Re-check every hash link and Merkle root on the chain.

        This is the audit, so it trusts nothing a transaction retains:
        each Merkle root is rebuilt from fresh encodings, which is also
        where a transaction mutated in place after it was encoded (a
        breach of its immutability contract) comes to light.

        Raises
        ------
        ChainIntegrityError
            If any block fails validation or linkage — evidence of
            tampering with a peer's local copy.
        """
        previous = GENESIS_PREVIOUS_HASH
        for expected_number, block in enumerate(self._blocks):
            try:
                block.audit_structure()
            except BlockValidationError as exc:
                raise ChainIntegrityError(str(exc)) from exc
            if block.number != expected_number:
                raise ChainIntegrityError(
                    f"block numbering broken at {expected_number}"
                )
            if block.header.previous_hash != previous:
                raise ChainIntegrityError(
                    f"hash link broken at block {block.number}"
                )
            previous = block.hash()

    def total_bytes(self) -> int:
        """Ledger storage footprint: sum of all block sizes.

        Maintained as a running total on append — the storage-overhead
        experiments poll this after every run, and rescanning (and
        re-serializing) every block per call made the poll O(chain).
        """
        return self._total_bytes
