"""Property-based tests of Merkle trees and chain integrity."""

from hypothesis import given, settings, strategies as st

from repro.crypto.merkle import MerkleTree
from repro.ledger.block import GENESIS_PREVIOUS_HASH, Block
from repro.ledger.chain import Blockchain
from repro.ledger.transaction import Transaction

leaf_lists = st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=40)


@given(leaves=leaf_lists)
@settings(max_examples=60, deadline=None)
def test_every_leaf_proves_against_root(leaves):
    tree = MerkleTree(leaves)
    root = tree.root()
    for index, leaf in enumerate(leaves):
        assert tree.prove(index).verify(leaf, root)


@given(leaves=leaf_lists, data=st.data())
@settings(max_examples=60, deadline=None)
def test_proof_rejects_substituted_leaf(leaves, data):
    tree = MerkleTree(leaves)
    index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    substitute = data.draw(st.binary(min_size=0, max_size=64))
    if substitute == leaves[index]:
        return
    assert not tree.prove(index).verify(substitute, tree.root())


@given(leaves=leaf_lists)
@settings(max_examples=60, deadline=None)
def test_root_is_order_sensitive(leaves):
    if len(set(leaves)) < 2:
        return
    reordered = list(reversed(leaves))
    if reordered != leaves:
        assert MerkleTree(leaves).root() != MerkleTree(reordered).root()


@given(leaves=leaf_lists, extra=st.binary(max_size=32))
@settings(max_examples=60, deadline=None)
def test_append_changes_root(leaves, extra):
    assert MerkleTree(leaves).root() != MerkleTree(leaves + [extra]).root()


tx_batches = st.lists(
    st.lists(
        st.dictionaries(
            st.sampled_from(["to", "from", "item"]),
            st.text(max_size=8),
            max_size=3,
        ),
        min_size=0,
        max_size=5,
    ),
    min_size=1,
    max_size=6,
)


@given(batches=tx_batches)
@settings(max_examples=40, deadline=None)
def test_chain_accepts_any_stream_and_verifies(batches):
    chain = Blockchain()
    counter = 0
    for batch in batches:
        txs = []
        for nonsecret in batch:
            txs.append(Transaction(tid=f"tx-{counter}", nonsecret=nonsecret))
            counter += 1
        chain.append(
            Block.build(
                number=chain.height,
                previous_hash=chain.tip_hash,
                transactions=txs,
                state_root=b"\x00" * 32,
                timestamp=float(chain.height),
            )
        )
    chain.verify_integrity()
    assert [tx.tid for tx in chain.transactions()] == [
        f"tx-{i}" for i in range(counter)
    ]


@given(batches=tx_batches, data=st.data())
@settings(max_examples=40, deadline=None)
def test_any_transaction_tamper_breaks_integrity(batches, data):
    chain = Blockchain()
    counter = 0
    for batch in batches:
        txs = [Transaction(tid=f"tx-{counter + i}", nonsecret=ns) for i, ns in enumerate(batch)]
        counter += len(batch)
        chain.append(
            Block.build(
                number=chain.height,
                previous_hash=chain.tip_hash,
                transactions=txs,
                state_root=b"\x00" * 32,
                timestamp=float(chain.height),
            )
        )
    if counter == 0:
        return
    victim = data.draw(st.integers(min_value=0, max_value=counter - 1))
    block_number, position = chain.locate(f"tx-{victim}")
    block = chain.block(block_number)
    doctored = list(block.transactions)
    doctored[position] = Transaction(
        tid=doctored[position].tid,
        nonsecret={"tampered": True},
    )
    chain._blocks[block_number] = Block(
        header=block.header, transactions=tuple(doctored)
    )
    import pytest

    from repro.errors import ChainIntegrityError

    with pytest.raises(ChainIntegrityError):
        chain.verify_integrity()
