"""Snapshot files: checksums, newest-first loading, crash windows, pruning."""

from __future__ import annotations

import json

import pytest

from repro.errors import SimulatedCrashError
from repro.storage import (
    KEEP_SNAPSHOTS,
    CrashPointGuard,
    MemoryFilesystem,
    load_latest,
    snapshot_name,
    write_snapshot,
)

ROOT = "main/peer1"


def _write(fs, height, guard=None):
    return write_snapshot(
        fs,
        ROOT,
        height=height,
        wal_offset=height * 100,
        tip_hash=bytes([height]) * 32,
        state_root=bytes([height + 1]) * 32,
        state=[[f"k{i}", i, height, 0] for i in range(height)],
        guard=guard,
    )


def test_write_load_roundtrip():
    fs = MemoryFilesystem()
    name = _write(fs, 3)
    assert name == snapshot_name(3)
    snap = load_latest(fs, ROOT)
    assert snap is not None
    assert snap.height == 3
    assert snap.wal_offset == 300
    assert snap.tip_hash == bytes([3]) * 32
    assert snap.state_root == bytes([4]) * 32
    assert snap.state == [["k0", 0, 3, 0], ["k1", 1, 3, 0], ["k2", 2, 3, 0]]
    assert snap.source == name


def test_latest_snapshot_wins():
    fs = MemoryFilesystem()
    _write(fs, 3)
    _write(fs, 6)
    assert load_latest(fs, ROOT).height == 6


def test_crash_before_the_prune_loads_the_new_snapshot():
    """A crash after the snapshot's fsync and before the prune leaves
    one generation too many; the verified newest-first scan uses the
    new snapshot, and the next write prunes the surplus."""
    fs = MemoryFilesystem()
    _write(fs, 3)
    _write(fs, 6)
    guard = CrashPointGuard()
    guard.arm(at_op=3)  # snap write, snap fsync, *prune of snap 3*
    with pytest.raises(SimulatedCrashError):
        _write(fs, 9, guard=guard)
    assert fs.exists(f"{ROOT}/{snapshot_name(3)}")  # not pruned
    assert load_latest(fs, ROOT).height == 9
    _write(fs, 12)
    names = [n for n in fs.listdir(ROOT) if n.startswith("snap-")]
    assert names == [snapshot_name(9), snapshot_name(12)]


def test_crash_before_snapshot_write_leaves_no_partial_file():
    fs = MemoryFilesystem()
    guard = CrashPointGuard()
    guard.arm(at_op=1)
    with pytest.raises(SimulatedCrashError):
        _write(fs, 3, guard=guard)
    assert not fs.exists(f"{ROOT}/{snapshot_name(3)}")
    assert load_latest(fs, ROOT) is None


def test_corrupt_newest_falls_back_to_older_generation():
    fs = MemoryFilesystem()
    _write(fs, 3)
    _write(fs, 6)
    path = f"{ROOT}/{snapshot_name(6)}"
    raw = bytearray(fs.read(path))
    raw[len(raw) // 2] ^= 0xFF
    fs.write(path, bytes(raw))
    snap = load_latest(fs, ROOT)
    assert snap is not None and snap.height == 3


def test_truncated_json_snapshot_is_skipped():
    fs = MemoryFilesystem()
    _write(fs, 3)
    fs.write(f"{ROOT}/{snapshot_name(6)}", b'{"checksum": "beef", "cont')
    assert load_latest(fs, ROOT).height == 3


def test_old_generations_are_pruned():
    fs = MemoryFilesystem()
    for height in (2, 4, 6, 8):
        _write(fs, height)
    names = [n for n in fs.listdir(ROOT) if n.startswith("snap-")]
    assert names == [snapshot_name(6), snapshot_name(8)]
    assert len(names) == KEEP_SNAPSHOTS


def test_corrupt_manifest_is_not_fatal():
    """Only ``snap-*.json`` files are scanned; anything else in the
    directory, such as a stray ``MANIFEST.json``, is ignored, however
    malformed."""
    fs = MemoryFilesystem()
    _write(fs, 3)
    fs.write(f"{ROOT}/MANIFEST.json", b"not json at all")
    assert load_latest(fs, ROOT).height == 3


def test_checksum_covers_meta():
    """Tampering with an anchor (not just the body) must invalidate."""
    fs = MemoryFilesystem()
    _write(fs, 3)
    path = f"{ROOT}/{snapshot_name(3)}"
    envelope = json.loads(fs.read(path))
    envelope["content"]["meta"]["height"] = 4
    fs.write(path, json.dumps(envelope).encode())
    assert load_latest(fs, ROOT) is None
