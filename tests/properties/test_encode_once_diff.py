"""Differential property tests: retained sizes and digests vs. fresh encodes.

A transaction keeps the size and Merkle leaf digest of its first
encoding, and blocks build their transaction tree from those digests.
That is only an optimisation if every retained value equals what an
uncached encode of the same fields gives — checked here against an
encoder written out independently of ``Transaction.serialize``.
"""

import json
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.crypto.merkle import MerkleTree, leaf_hash
from repro.ledger.block import GENESIS_PREVIOUS_HASH, Block
from repro.ledger.transaction import Transaction

text = st.text(max_size=8)  # any code point: non-ASCII is escaped, not dropped
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**40), 2**40), text
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(text, inner, max_size=3)
    ),
    max_leaves=8,
)
transactions = st.builds(
    Transaction,
    tid=text,
    kind=st.sampled_from(["invoke", "view-merge", "txlist-flush"]),
    nonsecret=st.dictionaries(text, json_values, max_size=4),
    concealed=st.binary(max_size=40),
    salt=st.binary(max_size=16),
    creator=text,
)


def fresh_encode(tx: Transaction) -> bytes:
    """The canonical encoding, spelled out without ``Transaction.serialize``."""
    return json.dumps(
        {
            "tid": tx.tid,
            "kind": tx.kind,
            "nonsecret": tx.nonsecret,
            "concealed": tx.concealed.hex(),
            "salt": tx.salt.hex(),
            "creator": tx.creator,
        },
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    ).encode("utf-8")


@given(tx=transactions, first=st.sampled_from(["size", "leaf", "serialize"]))
@settings(max_examples=150, deadline=None)
def test_retained_size_and_leaf_equal_a_fresh_encode(tx, first):
    """Whichever accessor triggers the one encode, all three agree with it."""
    raw = fresh_encode(tx)
    if first == "size":
        tx.size_bytes
    elif first == "leaf":
        tx.leaf_digest
    else:
        tx.serialize()
    assert tx.size_bytes == len(raw)
    assert tx.leaf_digest == leaf_hash(raw)
    assert tx.serialize() == raw
    assert Transaction.deserialize(raw) == tx


@given(tx=transactions, value=json_values)
@settings(max_examples=100, deadline=None)
def test_derived_transactions_never_carry_a_stale_size_or_digest(tx, value):
    tx.size_bytes  # the original has encoded itself
    derived = [
        replace(tx, concealed=tx.concealed + b"\x01"),
        replace(tx, nonsecret={**tx.nonsecret, "extra": value}),
        Transaction.deserialize(tx.serialize()),
    ]
    for copy in derived:
        raw = fresh_encode(copy)
        assert copy.size_bytes == len(raw)
        assert copy.leaf_digest == leaf_hash(raw)


@given(txs=st.lists(transactions, max_size=9))
@settings(max_examples=80, deadline=None)
def test_block_root_and_audit_paths_match_a_tree_over_raw_leaves(txs):
    raws = [fresh_encode(tx) for tx in txs]
    reference = MerkleTree(raws)
    block = Block.build(
        number=0,
        previous_hash=GENESIS_PREVIOUS_HASH,
        transactions=txs,
        state_root=b"\x00" * 32,
        timestamp=0.0,
    )
    assert block.header.tx_root == reference.root()
    block.validate_structure()
    assert block.size_bytes == len(block.header.serialize()) + sum(map(len, raws))
    from_digests = MerkleTree.from_leaf_hashes([tx.leaf_digest for tx in txs])
    for index, raw in enumerate(raws):
        proof = from_digests.prove(index)
        assert proof == reference.prove(index)
        assert proof.verify(raw, block.header.tx_root)
