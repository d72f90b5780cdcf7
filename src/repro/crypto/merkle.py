"""Merkle trees for state digests and integrity proofs.

The paper (§3, §5.2) keeps smart-contract state — including view data —
in the peers' local databases and stores only the Merkle root of the
state in each block header.  A Merkle audit path then proves that a
particular state entry is covered by the on-chain digest.

The construction is the standard binary hash tree with domain
separation between leaves and interior nodes (``0x00 || value`` for
leaves, ``0x01 || left || right`` for nodes) to rule out second-preimage
tricks across levels.  Odd nodes are promoted unchanged (Bitcoin-style
duplication is avoided because it admits trivial malleability).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.hashing import sha256
from repro.errors import MerkleProofError

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

#: Root digest of an empty tree — hash of a distinguished constant so it
#: cannot collide with any real leaf or node hash.
EMPTY_ROOT = sha256(b"\x02empty-merkle-tree")


def leaf_hash(value: bytes) -> bytes:
    """Hash a leaf value with leaf domain separation.

    Streams the prefix and value into the hash separately, so large
    leaf values (serialized view payloads) are not copied into a
    concatenated buffer first.
    """
    h = hashlib.sha256(_LEAF_PREFIX)
    h.update(value)
    return h.digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    """Hash two child digests with interior-node domain separation."""
    return sha256(_NODE_PREFIX + left + right)


@dataclass(frozen=True)
class MerkleProof:
    """An audit path from a leaf to the root.

    Attributes
    ----------
    leaf_index:
        Position of the proven leaf in the tree.
    siblings:
        ``(digest, is_left)`` pairs bottom-up; ``is_left`` says whether
        the sibling sits to the left of the running hash.
    """

    leaf_index: int
    siblings: tuple[tuple[bytes, bool], ...]

    def verify(self, value: bytes, root: bytes) -> bool:
        """Check that ``value`` at ``leaf_index`` is covered by ``root``."""
        current = leaf_hash(value)
        for sibling, is_left in self.siblings:
            if is_left:
                current = node_hash(sibling, current)
            else:
                current = node_hash(current, sibling)
        return current == root


class MerkleTree:
    """A Merkle tree over an ordered list of byte-string leaves."""

    def __init__(self, leaves: list[bytes] | None = None):
        self._leaf_hashes: list[bytes] = [leaf_hash(v) for v in (leaves or [])]
        self._levels: list[list[bytes]] | None = None

    @classmethod
    def from_leaf_hashes(cls, leaf_hashes: list[bytes]) -> "MerkleTree":
        """The tree over leaves whose :func:`leaf_hash` digests the
        caller already holds; same roots and proofs as hashing the leaf
        values here."""
        tree = cls()
        tree._leaf_hashes = list(leaf_hashes)
        return tree

    def __len__(self) -> int:
        return len(self._leaf_hashes)

    def append(self, value: bytes) -> None:
        """Add a leaf; invalidates any cached structure."""
        self._leaf_hashes.append(leaf_hash(value))
        self._levels = None

    def _build(self) -> list[list[bytes]]:
        if self._levels is not None:
            return self._levels
        if not self._leaf_hashes:
            self._levels = [[EMPTY_ROOT]]
            return self._levels
        level = self._leaf_hashes
        levels = [level]
        while len(level) > 1:
            parents = []
            for i in range(0, len(level) - 1, 2):
                parents.append(node_hash(level[i], level[i + 1]))
            if len(level) % 2:
                parents.append(level[-1])  # odd node promoted unchanged
            level = parents
            levels.append(level)
        self._levels = levels
        return levels

    def root(self) -> bytes:
        """The 32-byte root digest (``EMPTY_ROOT`` for an empty tree)."""
        return self._build()[-1][0]

    def prove(self, index: int) -> MerkleProof:
        """Build an audit path for the leaf at ``index``.

        Raises
        ------
        MerkleProofError
            If ``index`` is out of range.
        """
        if not 0 <= index < len(self._leaf_hashes):
            raise MerkleProofError(
                f"leaf index {index} out of range for "
                f"{len(self._leaf_hashes)} leaves"
            )
        levels = self._build()
        siblings: list[tuple[bytes, bool]] = []
        position = index
        for level in levels[:-1]:
            if position % 2 == 0:
                sibling_index = position + 1
                if sibling_index < len(level):
                    siblings.append((level[sibling_index], False))
                # No sibling: node was promoted, path contributes nothing.
            else:
                siblings.append((level[position - 1], True))
            position //= 2
        return MerkleProof(leaf_index=index, siblings=tuple(siblings))

    def verify(self, index: int, value: bytes) -> bool:
        """Convenience: prove and verify ``value`` at ``index`` in one call."""
        return self.prove(index).verify(bytes(value), self.root())


class IncrementalMerkleTree:
    """A persistent Merkle tree over *leaf hashes* with cheap updates.

    Produces exactly the level structure :class:`MerkleTree` builds —
    same pairing, same odd-node promotion — so roots and audit paths
    are byte-identical.  The difference is the cost model: instead of
    rebuilding every level from scratch, :meth:`apply` takes a batch of
    changes and recomputes only

    - the root path of each point-updated leaf (``O(log n)`` each), and
    - the suffix of every level to the right of the first structural
      change (insert/delete shifts all later pairings).

    Callers hand in leaf *hashes* (already domain-separated via
    :func:`leaf_hash`); this class never re-hashes unchanged leaves,
    which is where the bulk of a full rebuild's cost lives.
    """

    def __init__(self, leaf_hashes: list[bytes] | None = None):
        self._levels: list[list[bytes]] = [
            [bytes(h) for h in (leaf_hashes or [])]
        ]
        if self._levels[0]:
            self._recompute(set(), 0)

    def __len__(self) -> int:
        return len(self._levels[0])

    def leaf(self, index: int) -> bytes:
        """The stored hash of the leaf at ``index``."""
        return self._levels[0][index]

    def apply(
        self,
        point_updates: dict[int, bytes] | None = None,
        suffix_start: int | None = None,
        suffix_hashes: list[bytes] | None = None,
    ) -> None:
        """Apply one batch of changes and recompute affected nodes.

        ``point_updates`` maps leaf index → new leaf hash for leaves
        whose *value* changed but whose position did not.
        ``suffix_start``/``suffix_hashes`` replace all leaves from
        ``suffix_start`` onwards (how inserts and deletes arrive: every
        leaf right of the first structural change may have shifted).
        Point-update indices at or beyond ``suffix_start`` are ignored —
        the suffix replacement already covers them.
        """
        leaves = self._levels[0]
        if suffix_start is not None:
            del leaves[suffix_start:]
            leaves.extend(bytes(h) for h in suffix_hashes or [])
        dirty: set[int] = set()
        for index, new_hash in (point_updates or {}).items():
            if suffix_start is not None and index >= suffix_start:
                continue
            new_hash = bytes(new_hash)
            if leaves[index] != new_hash:
                leaves[index] = new_hash
                dirty.add(index)
        self._recompute(dirty, suffix_start)

    def _recompute(self, dirty: set[int], suffix: int | None) -> None:
        """Propagate a dirty set and/or a structural suffix to the root."""
        if not dirty and suffix is None:
            return
        levels = self._levels
        level = 0
        while True:
            child = levels[level]
            if len(child) <= 1:
                del levels[level + 1 :]
                return
            parent_len = (len(child) + 1) // 2
            if level + 1 == len(levels):
                levels.append([])
            parent = levels[level + 1]
            next_dirty: set[int] = set()
            if suffix is not None:
                parent_start = suffix // 2
                del parent[parent_start:]
                for p in range(parent_start, parent_len):
                    left = child[2 * p]
                    if 2 * p + 1 < len(child):
                        parent.append(node_hash(left, child[2 * p + 1]))
                    else:
                        parent.append(left)  # odd node promoted unchanged
            for index in dirty:
                p = index // 2
                if suffix is not None and p >= suffix // 2:
                    continue  # already covered by the suffix recompute
                left = child[2 * p]
                if 2 * p + 1 < len(child):
                    value = node_hash(left, child[2 * p + 1])
                else:
                    value = left
                if parent[p] != value:
                    parent[p] = value
                    next_dirty.add(p)
            dirty = next_dirty
            suffix = None if suffix is None else suffix // 2
            if not dirty and suffix is None:
                return  # update produced an identical node; nothing above moves
            level += 1

    def root(self) -> bytes:
        """The 32-byte root digest (``EMPTY_ROOT`` for an empty tree)."""
        if not self._levels[0]:
            return EMPTY_ROOT
        return self._levels[-1][0]

    def prove(self, index: int) -> MerkleProof:
        """Audit path for the leaf at ``index``; see :meth:`MerkleTree.prove`.

        Raises
        ------
        MerkleProofError
            If ``index`` is out of range.
        """
        if not 0 <= index < len(self._levels[0]):
            raise MerkleProofError(
                f"leaf index {index} out of range for "
                f"{len(self._levels[0])} leaves"
            )
        siblings: list[tuple[bytes, bool]] = []
        position = index
        for level in self._levels[:-1]:
            if position % 2 == 0:
                sibling_index = position + 1
                if sibling_index < len(level):
                    siblings.append((level[sibling_index], False))
                # No sibling: node was promoted, path contributes nothing.
            else:
                siblings.append((level[position - 1], True))
            position //= 2
        return MerkleProof(leaf_index=index, siblings=tuple(siblings))
