"""Tests for the block cutter and ordering service."""

from repro.fabric.config import NetworkConfig
from repro.fabric.orderer import BlockCutter, OrderingService
from repro.ledger.block import GENESIS_PREVIOUS_HASH
from repro.ledger.transaction import Transaction


def _config(**overrides):
    params = {"block_max_transactions": 3, "block_max_bytes": 10_000}
    params.update(overrides)
    return NetworkConfig(**params)


def _tx(i, payload=b""):
    return Transaction(tid=f"tx-{i}", concealed=payload)


def test_cut_on_count():
    cutter = BlockCutter(_config())
    for i in range(2):
        cutter.add(_tx(i))
        assert cutter.should_cut() is None
    cutter.add(_tx(2))
    assert cutter.should_cut() == "count"
    decision = cutter.cut("count")
    assert [t.tid for t in decision.transactions] == ["tx-0", "tx-1", "tx-2"]
    assert not cutter.has_pending


def test_cut_on_bytes():
    cutter = BlockCutter(_config(block_max_bytes=1000))
    cutter.add(_tx(0, b"\x00" * 600))  # hex-encoding doubles this
    assert cutter.should_cut() == "bytes"
    decision = cutter.cut("bytes")
    assert len(decision.transactions) == 1


def test_byte_limit_splits_batches():
    cutter = BlockCutter(_config(block_max_transactions=100, block_max_bytes=1500))
    for i in range(3):
        cutter.add(_tx(i, b"\x00" * 300))  # each tx ~800 bytes serialized
    decision = cutter.cut("timeout")
    # Only one more tx fits under 1500 bytes after the first.
    assert len(decision.transactions) < 3
    assert cutter.has_pending


def test_oversized_single_tx_still_cuts():
    cutter = BlockCutter(_config(block_max_bytes=100))
    cutter.add(_tx(0, b"\x00" * 500))
    decision = cutter.cut("bytes")
    assert len(decision.transactions) == 1


def test_pending_bytes_accounting():
    """A cut takes its transactions' bytes off the running total: one
    transaction under the byte limit never trips it, before or after
    a cut."""
    tx = _tx(0, b"\x01" * 10)
    cutter = BlockCutter(_config(block_max_bytes=tx.size_bytes + 1))
    cutter.add(tx)
    assert cutter.should_cut() is None
    cutter.cut("timeout")
    cutter.add(_tx(1, b"\x01" * 10))
    assert cutter.should_cut() is None
    cutter.add(_tx(2, b"\x01" * 10))
    assert cutter.should_cut() == "bytes"


def test_ordering_service_links_blocks():
    config = _config()
    cutter = BlockCutter(config)
    service = OrderingService(config)
    for i in range(6):
        cutter.add(_tx(i))
    first = service.build_block(cutter.cut("count"), timestamp=1.0)
    second = service.build_block(cutter.cut("count"), timestamp=2.0)
    assert first.number == 0
    assert first.header.previous_hash == GENESIS_PREVIOUS_HASH
    assert second.number == 1
    assert second.header.previous_hash == first.hash()
    assert service.blocks_cut == 2
    assert service.cut_reasons["count"] == 2


def test_timeout_reason_recorded():
    config = _config()
    cutter = BlockCutter(config)
    service = OrderingService(config)
    cutter.add(_tx(0))
    service.build_block(cutter.cut("timeout"), timestamp=5.0)
    assert service.cut_reasons["timeout"] == 1
