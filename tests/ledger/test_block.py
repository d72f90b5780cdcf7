"""Tests for block construction and structural validation."""

import pytest

from repro.errors import BlockValidationError
from repro.ledger.block import GENESIS_PREVIOUS_HASH, Block
from repro.ledger.transaction import Transaction


def _txs(n):
    return [Transaction(tid=f"tx-{i}", nonsecret={"i": i}) for i in range(n)]


def test_build_block_links_and_counts():
    block = Block.build(
        number=0,
        previous_hash=GENESIS_PREVIOUS_HASH,
        transactions=_txs(3),
        state_root=b"\x00" * 32,
        timestamp=1.5,
    )
    assert block.number == 0
    assert block.header.tx_count == 3
    assert block.header.timestamp == 1.5
    block.validate_structure()


def test_hash_depends_on_content():
    a = Block.build(0, GENESIS_PREVIOUS_HASH, _txs(2), b"\x00" * 32, 0.0)
    b = Block.build(0, GENESIS_PREVIOUS_HASH, _txs(3), b"\x00" * 32, 0.0)
    assert a.hash() != b.hash()


def test_hash_depends_on_previous_hash():
    a = Block.build(1, b"\x01" * 32, _txs(1), b"\x00" * 32, 0.0)
    b = Block.build(1, b"\x02" * 32, _txs(1), b"\x00" * 32, 0.0)
    assert a.hash() != b.hash()


def test_tampered_transaction_breaks_merkle_root():
    txs = _txs(4)
    block = Block.build(0, GENESIS_PREVIOUS_HASH, txs, b"\x00" * 32, 0.0)
    tampered = Block(
        header=block.header,
        transactions=tuple(
            [Transaction(tid="tx-0", nonsecret={"i": 999})] + txs[1:]
        ),
    )
    with pytest.raises(BlockValidationError, match="Merkle root"):
        tampered.validate_structure()


def test_wrong_tx_count_detected():
    block = Block.build(0, GENESIS_PREVIOUS_HASH, _txs(2), b"\x00" * 32, 0.0)
    truncated = Block(header=block.header, transactions=block.transactions[:1])
    with pytest.raises(BlockValidationError, match="transactions"):
        truncated.validate_structure()


def test_empty_block_is_valid():
    block = Block.build(0, GENESIS_PREVIOUS_HASH, [], b"\x00" * 32, 0.0)
    block.validate_structure()
    assert block.header.tx_count == 0


def test_size_includes_header_and_txs():
    block = Block.build(0, GENESIS_PREVIOUS_HASH, _txs(2), b"\x00" * 32, 0.0)
    tx_bytes = sum(tx.size_bytes for tx in block.transactions)
    assert block.size_bytes > tx_bytes
