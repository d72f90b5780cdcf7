"""Tests for the blockchain: appends, lookup, integrity verification."""

import pytest

from repro.errors import (
    BlockValidationError,
    ChainIntegrityError,
    TransactionNotFoundError,
)
from repro.ledger.block import GENESIS_PREVIOUS_HASH, Block
from repro.ledger.chain import Blockchain
from repro.ledger.transaction import Transaction


def _grow(chain: Blockchain, blocks: int, txs_per_block: int = 2) -> None:
    counter = len(list(chain.transactions()))
    for _ in range(blocks):
        txs = []
        for _ in range(txs_per_block):
            txs.append(Transaction(tid=f"tx-{chain.name}-{counter}"))
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


def test_empty_chain():
    chain = Blockchain()
    assert chain.height == 0
    assert chain.tip_hash == GENESIS_PREVIOUS_HASH
    assert list(chain.transactions()) == []


def test_append_and_lookup():
    chain = Blockchain()
    _grow(chain, 3)
    assert chain.height == 3
    assert len(list(chain.transactions())) == 6
    tx = chain.get_transaction("tx-main-4")
    assert tx.tid == "tx-main-4"
    assert chain.locate("tx-main-4") == (2, 0)
    assert chain.locate("tx-main-0") == (0, 0)


def test_unknown_transaction_raises():
    chain = Blockchain()
    with pytest.raises(TransactionNotFoundError):
        chain.get_transaction("missing")
    with pytest.raises(TransactionNotFoundError):
        chain.locate("missing")


def test_wrong_block_number_rejected():
    chain = Blockchain()
    block = Block.build(5, chain.tip_hash, [], b"\x00" * 32, 0.0)
    with pytest.raises(BlockValidationError, match="expected block 0"):
        chain.append(block)


def test_broken_link_rejected():
    chain = Blockchain()
    _grow(chain, 1)
    bad = Block.build(1, b"\xff" * 32, [], b"\x00" * 32, 0.0)
    with pytest.raises(BlockValidationError, match="link"):
        chain.append(bad)


def test_duplicate_tid_rejected():
    chain = Blockchain()
    _grow(chain, 1)
    dup = Block.build(
        number=1,
        previous_hash=chain.tip_hash,
        transactions=[Transaction(tid="tx-main-0")],
        state_root=b"\x00" * 32,
        timestamp=1.0,
    )
    with pytest.raises(BlockValidationError, match="duplicate"):
        chain.append(dup)


def test_iteration_orders():
    chain = Blockchain()
    _grow(chain, 3, txs_per_block=1)
    assert [block.number for block in chain] == [0, 1, 2]
    assert [tx.tid for tx in chain.transactions()] == [
        "tx-main-0",
        "tx-main-1",
        "tx-main-2",
    ]


def test_verify_integrity_passes_on_honest_chain():
    chain = Blockchain()
    _grow(chain, 5)
    chain.verify_integrity()


def test_verify_integrity_detects_tampered_history():
    chain = Blockchain()
    _grow(chain, 3)
    # Tamper with a middle block's transaction behind the chain's back.
    original = chain._blocks[1]
    chain._blocks[1] = Block(
        header=original.header,
        transactions=(
            Transaction(tid="tx-main-2", nonsecret={"evil": True}),
            original.transactions[1],
        ),
    )
    with pytest.raises(ChainIntegrityError):
        chain.verify_integrity()


def test_verify_integrity_detects_a_transaction_mutated_in_place():
    """The audit re-encodes: a retained size or leaf digest cannot hide
    a write through ``tx.nonsecret`` after the block was built."""
    chain = Blockchain()
    _grow(chain, 3)
    chain.block(1).transactions[0].nonsecret["evil"] = True
    chain.block(1).validate_structure()  # the hot path trusts what it holds
    with pytest.raises(ChainIntegrityError, match="block 1"):
        chain.verify_integrity()


def test_verify_integrity_detects_replaced_block():
    chain = Blockchain()
    _grow(chain, 3)
    replacement = Block.build(
        number=1,
        previous_hash=chain._blocks[0].hash(),
        transactions=[Transaction(tid="tx-replacement")],
        state_root=b"\x00" * 32,
        timestamp=1.0,
    )
    chain._blocks[1] = replacement
    with pytest.raises(ChainIntegrityError, match="link"):
        chain.verify_integrity()


def test_block_accessor_bounds():
    chain = Blockchain()
    _grow(chain, 1)
    assert chain.block(0).number == 0
    with pytest.raises(ChainIntegrityError):
        chain.block(1)


def test_total_bytes_accumulates():
    chain = Blockchain()
    assert chain.total_bytes() == 0
    _grow(chain, 2)
    assert chain.total_bytes() == sum(b.size_bytes for b in chain)
