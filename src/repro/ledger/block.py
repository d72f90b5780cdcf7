"""Blocks: batches of transactions chained by cryptographic hash.

Each block header carries the hash of the previous block's header, a
Merkle root over the block's transactions, and the world-state digest
after applying the block (paper §3: "the root hash of the Merkle tree
serves as the state digest, and it is included in each block header").
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.crypto.hashing import sha256
from repro.crypto.merkle import MerkleTree, leaf_hash
from repro.errors import BlockValidationError
from repro.ledger.transaction import Transaction

#: Previous-hash value of the genesis block.
GENESIS_PREVIOUS_HASH = b"\x00" * 32


@dataclass(frozen=True)
class BlockHeader:
    """Consensus-relevant metadata of one block."""

    number: int
    previous_hash: bytes
    tx_root: bytes
    state_root: bytes
    timestamp: float
    tx_count: int

    def serialize(self) -> bytes:
        body = {
            "number": self.number,
            "previous_hash": self.previous_hash.hex(),
            "tx_root": self.tx_root.hex(),
            "state_root": self.state_root.hex(),
            "timestamp": self.timestamp,
            "tx_count": self.tx_count,
        }
        return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()

    def hash(self) -> bytes:
        """The block hash — SHA-256 over the serialized header.

        Computed once per header (frozen, so it cannot change): every
        chain append and every validation memo lookup asks for the
        tip's hash again.
        """
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", sha256(self.serialize()))
            return self._hash


@dataclass(frozen=True)
class Block:
    """A block: header plus the ordered transactions it commits."""

    header: BlockHeader
    transactions: tuple[Transaction, ...] = field(default_factory=tuple)

    @classmethod
    def build(
        cls,
        number: int,
        previous_hash: bytes,
        transactions: list[Transaction],
        state_root: bytes,
        timestamp: float,
    ) -> "Block":
        """Assemble a block, computing the transaction Merkle root."""
        header = BlockHeader(
            number=number,
            previous_hash=bytes(previous_hash),
            tx_root=_tx_root(transactions),
            state_root=bytes(state_root),
            timestamp=timestamp,
            tx_count=len(transactions),
        )
        return cls(header=header, transactions=tuple(transactions))

    def hash(self) -> bytes:
        return self.header.hash()

    @property
    def number(self) -> int:
        return self.header.number

    @property
    def size_bytes(self) -> int:
        """Header plus all transaction bytes (storage accounting unit)."""
        return len(self.header.serialize()) + sum(
            tx.size_bytes for tx in self.transactions
        )

    def validate_structure(self) -> None:
        """Check internal consistency (tx count and Merkle root).

        Raises
        ------
        BlockValidationError
            If the header does not match the transaction list.
        """
        self._check_structure([tx.leaf_digest for tx in self.transactions])

    def audit_structure(self) -> None:
        """:meth:`validate_structure` from fresh encodings.

        Trusts nothing the transactions retain, so it is also where a
        transaction mutated in place after it was encoded (a breach of
        its immutability contract) comes to light.  For audits and
        crash recovery, not the commit path.
        """
        self._check_structure(
            [leaf_hash(tx.serialize()) for tx in self.transactions]
        )

    def _check_structure(self, leaf_hashes: list[bytes]) -> None:
        if self.header.tx_count != len(self.transactions):
            raise BlockValidationError(
                f"block {self.number}: header claims {self.header.tx_count} "
                f"transactions, body has {len(self.transactions)}"
            )
        if MerkleTree.from_leaf_hashes(leaf_hashes).root() != self.header.tx_root:
            raise BlockValidationError(
                f"block {self.number}: transaction Merkle root mismatch"
            )


def _tx_root(transactions) -> bytes:
    """Merkle root over the transactions' canonical encodings, built
    from the leaf digests the transactions already hold."""
    return MerkleTree.from_leaf_hashes(
        [tx.leaf_digest for tx in transactions]
    ).root()
