"""Merkle digests over the world state.

The consensus among peers is on the state digest in each block header
(paper §3, §5.2): the entire contract state is arranged as the leaves
of a Merkle tree and only the root travels on chain.  This module
computes that root deterministically from a :class:`StateDatabase` and
produces membership proofs for individual state entries, which is what
lets a view reader verify ViewStorage contents against the ledger
without trusting the serving peer.

Two implementations produce byte-identical digests:

- :class:`StateDigest` — the reference: a full tree rebuild over the
  sorted state (O(n log n) encodes + hashes per digest).  Kept as the
  ground truth the differential tests compare against.
- :class:`IncrementalStateDigest` — the fast path: subscribes to a
  :class:`StateDatabase`, notes which keys were written, and folds them
  into a persistent :class:`~repro.crypto.merkle.IncrementalMerkleTree`
  when a root or proof is asked for.  A block that touches *d* of *n*
  keys then costs O(d·log n) (value updates) or O(d·log n +
  shifted-suffix node hashes) (inserts/deletes) — never a re-encode or
  re-hash of an untouched entry — and a run that never asks for a root
  encodes and hashes nothing.

Peers run the incremental digest; :class:`StateDigest` (and its
one-shot :func:`state_root`) is the oracle the differential tests and
the ledger microbench rebuild next to it.
"""

from __future__ import annotations

import json
import weakref
from bisect import bisect_left, insort
from typing import Any

from repro.crypto.merkle import IncrementalMerkleTree, MerkleProof, MerkleTree, leaf_hash
from repro.errors import MerkleProofError
from repro.ledger.statedb import StateDatabase


def _encode_entry(key: str, value: Any) -> bytes:
    """Canonical leaf encoding of one state entry."""
    if isinstance(value, (bytes, bytearray)):
        encoded_value = "hex:" + bytes(value).hex()
    else:
        encoded_value = json.dumps(value, sort_keys=True, default=str)
    return json.dumps([key, encoded_value], separators=(",", ":")).encode()


class StateDigest:
    """Merkle tree over the sorted entries of a state database."""

    def __init__(self, statedb: StateDatabase):
        # Sorted here, not read from the database's key index: the
        # oracle must not inherit a fault in what it is compared with.
        state = statedb.snapshot()
        self._keys = sorted(state)
        self._leaves = [_encode_entry(k, state[k]) for k in self._keys]
        self._tree = MerkleTree(self._leaves)

    def root(self) -> bytes:
        """The 32-byte state root for a block header."""
        return self._tree.root()

    def prove(self, key: str) -> MerkleProof:
        """Membership proof for ``key``'s current entry.

        Raises
        ------
        MerkleProofError
            If the key is not present in the digested state.
        """
        try:
            index = self._keys.index(key)
        except ValueError as exc:
            raise MerkleProofError(f"key {key!r} not in state digest") from exc
        return self._tree.prove(index)

    def verify(self, key: str, value: Any, proof: MerkleProof, root: bytes) -> bool:
        """Check that ``(key, value)`` is covered by ``root`` via ``proof``."""
        return proof.verify(_encode_entry(key, value), root)


class IncrementalStateDigest:
    """Persistent state digest maintained alongside a live database.

    Construct it over a :class:`StateDatabase` (usually empty, at peer
    start) and it subscribes to the database's write stream.  A ``put``
    or ``delete`` only marks the key as pending; :meth:`root`/
    :meth:`prove` read each pending key's current value back from the
    database, encode and hash it once, and fold the changes into the
    tree in one batch.  So overwrites between two roots hash once, a
    put-then-delete hashes nothing, all writes of a block coalesce (a
    block inserting k keys pays one suffix recompute instead of k) —
    and while nobody asks for a root, a write costs a set insert.

    Roots and proofs are byte-identical to :class:`StateDigest` built
    over the same database (pinned by
    ``tests/properties/test_ledger_backend_diff.py``).
    """

    def __init__(self, statedb: StateDatabase, subscribe: bool = True):
        self._keys: list[str] = statedb.keys()
        self._leaf_hashes: dict[str, bytes] = {
            key: leaf_hash(_encode_entry(key, statedb.get(key)))
            for key in self._keys
        }
        self._tree = IncrementalMerkleTree(
            [self._leaf_hashes[key] for key in self._keys]
        )
        #: Keys written or deleted since the last flush.  The database
        #: holds each one's latest value (or no longer holds the key),
        #: and values are immutable once written (the
        #: :class:`StateDatabase` contract), so encoding at flush time
        #: gives the bytes the last ``put`` saw.  Held weakly: the
        #: database holds this digest as a listener, and a strong
        #: reference back would make every dropped world state (a
        #: crashed peer's) a cycle only the collector could free.
        self._statedb = weakref.proxy(statedb)
        self._pending: set[str] = set()
        if subscribe:
            statedb.subscribe(self)

    # -- write-stream observer ------------------------------------------------

    def on_put(self, key: str, value: Any) -> None:
        self._pending.add(key)

    def on_delete(self, key: str) -> None:
        self._pending.add(key)

    # -- digest interface -----------------------------------------------------

    def _flush(self) -> None:
        """Hash the pending writes and fold them into the tree in one batch."""
        if not self._pending:
            return
        # Keys whose value changed in place.
        dirty: list[str] = []
        # Smallest key inserted or deleted; every leaf from its (final)
        # sort position onward may have shifted.
        structural_min: str | None = None
        for key in self._pending:
            old_hash = self._leaf_hashes.get(key)
            entry = self._statedb.get_with_version(key)
            if entry is None:
                if old_hash is None:
                    continue
                del self._keys[bisect_left(self._keys, key)]
                del self._leaf_hashes[key]
            else:
                new_hash = leaf_hash(_encode_entry(key, entry.value))
                self._leaf_hashes[key] = new_hash
                if old_hash is not None:
                    if old_hash != new_hash:
                        dirty.append(key)
                    continue
                insort(self._keys, key)
            if structural_min is None or key < structural_min:
                structural_min = key
        self._pending.clear()
        if structural_min is not None:
            suffix_start = bisect_left(self._keys, structural_min)
            self._tree.apply(
                point_updates={
                    bisect_left(self._keys, key): self._leaf_hashes[key]
                    for key in dirty
                    if key < structural_min
                },
                suffix_start=suffix_start,
                suffix_hashes=[
                    self._leaf_hashes[key]
                    for key in self._keys[suffix_start:]
                ],
            )
        elif dirty:
            self._tree.apply(
                {
                    bisect_left(self._keys, key): self._leaf_hashes[key]
                    for key in dirty
                }
            )

    def root(self) -> bytes:
        """The 32-byte state root for a block header."""
        self._flush()
        return self._tree.root()

    def prove(self, key: str) -> MerkleProof:
        """Membership proof for ``key``'s current entry.

        Raises
        ------
        MerkleProofError
            If the key is not present in the digested state.
        """
        self._flush()
        index = bisect_left(self._keys, key)
        if index >= len(self._keys) or self._keys[index] != key:
            raise MerkleProofError(f"key {key!r} not in state digest")
        return self._tree.prove(index)

    def verify(self, key: str, value: Any, proof: MerkleProof, root: bytes) -> bool:
        """Check that ``(key, value)`` is covered by ``root`` via ``proof``."""
        return proof.verify(_encode_entry(key, value), root)


def state_root(statedb: StateDatabase) -> bytes:
    """One-shot state-root computation (reference full rebuild)."""
    return StateDigest(statedb).root()
