"""Blockchain ledger substrate.

A from-scratch append-only ledger in the Fabric mould: blocks of
transactions chained by hash, a versioned key-value world state
(the LevelDB stand-in), and Merkle digests of both transactions and
state embedded in block headers so integrity proofs can be checked
without trusting any single peer.
"""

from repro.ledger.block import Block, BlockHeader
from repro.ledger.chain import Blockchain
from repro.ledger.statedb import StateDatabase, Version
from repro.ledger.transaction import Transaction

__all__ = [
    "Transaction",
    "Block",
    "BlockHeader",
    "Blockchain",
    "StateDatabase",
    "Version",
]
