"""Tests for Merkle trees and audit-path proofs."""

import pytest

from repro.crypto.merkle import (
    EMPTY_ROOT,
    MerkleTree,
    leaf_hash,
    node_hash,
)
from repro.errors import MerkleProofError

LEAVES = [f"value-{i}".encode() for i in range(9)]


def test_empty_tree_root_is_sentinel():
    assert MerkleTree().root() == EMPTY_ROOT
    assert MerkleTree([]).root() == EMPTY_ROOT


def test_single_leaf_root():
    tree = MerkleTree([b"only"])
    assert tree.root() == leaf_hash(b"only")


def test_two_leaf_root_is_node_hash():
    tree = MerkleTree([b"a", b"b"])
    assert tree.root() == node_hash(leaf_hash(b"a"), leaf_hash(b"b"))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 16, 33])
def test_all_proofs_verify(n):
    leaves = LEAVES * 4  # plenty
    tree = MerkleTree(leaves[:n])
    root = tree.root()
    for i in range(n):
        proof = tree.prove(i)
        assert proof.verify(leaves[i], root), f"leaf {i} of {n}"


def test_proof_fails_for_wrong_value():
    tree = MerkleTree(LEAVES)
    proof = tree.prove(3)
    assert not proof.verify(b"tampered", tree.root())


def test_proof_fails_for_wrong_root():
    tree = MerkleTree(LEAVES)
    other = MerkleTree(LEAVES + [b"extra"])
    proof = tree.prove(3)
    assert not proof.verify(LEAVES[3], other.root())


def test_proof_index_out_of_range():
    tree = MerkleTree([b"a"])
    with pytest.raises(MerkleProofError):
        tree.prove(1)
    with pytest.raises(MerkleProofError):
        tree.prove(-1)


def test_append_changes_root():
    tree = MerkleTree([b"a"])
    before = tree.root()
    tree.append(b"b")
    assert tree.root() != before
    assert len(tree) == 2


def test_leaf_order_matters():
    assert MerkleTree([b"a", b"b"]).root() != MerkleTree([b"b", b"a"]).root()


def test_domain_separation_prevents_level_confusion():
    """A leaf containing what looks like two child hashes must not equal
    the interior node over those children."""
    left, right = leaf_hash(b"x"), leaf_hash(b"y")
    as_leaf = leaf_hash(left + right)
    as_node = node_hash(left, right)
    assert as_leaf != as_node


def test_duplicate_leaves_at_distinct_positions_both_prove():
    tree = MerkleTree([b"same", b"same", b"other"])
    assert tree.verify(0, b"same")
    assert tree.verify(1, b"same")
    assert not tree.verify(2, b"same")


def test_verify_convenience_method():
    tree = MerkleTree(LEAVES)
    assert tree.verify(0, LEAVES[0])
    assert not tree.verify(0, LEAVES[1])
