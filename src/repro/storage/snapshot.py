"""Checkpointed snapshots: periodic, self-verifying state checkpoints.

A snapshot bounds recovery work: instead of re-applying every state
write from genesis, a restarting node loads the newest verified
checkpoint and applies only the WAL suffix past the checkpoint's
recorded offset.  Blocks themselves are *not* duplicated into the
snapshot — the WAL doubles as the block store (as in Fabric), so the
checkpoint carries only world state plus the anchors needed to verify
it:

``meta``
    ``height`` (blocks covered), ``wal_offset`` (byte offset in the
    node's WAL the checkpoint corresponds to), ``tip_hash`` (block
    hash at that height), ``state_root`` (Merkle digest of the
    checkpointed state).
``body``
    The state database as sorted ``[key, encoded value, version
    block, version position]`` rows.

Each snapshot file is self-verifying — it embeds a SHA-256 checksum of
its canonical content — and is written atomically and fsynced before
older generations are pruned.  There is no pointer file:
:func:`load_latest` scans the snapshots newest-first with per-file
verification, so a crash at any op leaves a loadable newest snapshot
or the previous one.  A snapshot that fails its checksum is skipped in
favour of the next older one; with no usable snapshot at all, recovery
degrades to full WAL replay (and, with no WAL either, to the legacy
genesis replay).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.crypto.hashing import sha256
from repro.storage.crashpoints import (
    CrashPointGuard,
    guarded_fsync,
    guarded_remove,
    guarded_write,
)
from repro.storage.fs import Filesystem

FORMAT_VERSION = 1

#: Checkpoints retained per node; older ones are pruned after a new
#: one is durable (two generations, so one corrupt file still leaves a
#: verified fallback).
KEEP_SNAPSHOTS = 2


def snapshot_name(height: int) -> str:
    return f"snap-{height:010d}.json"


def _canonical(content: dict[str, Any]) -> bytes:
    return json.dumps(content, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class Snapshot:
    """One decoded, checksum-verified checkpoint."""

    height: int
    wal_offset: int
    tip_hash: bytes
    state_root: bytes
    #: Sorted state rows: [key, encoded value, version block, version pos].
    state: list[list[Any]]
    #: File name this snapshot was loaded from (diagnostics).
    source: str = ""


def write_snapshot(
    fs: Filesystem,
    root: str,
    *,
    height: int,
    wal_offset: int,
    tip_hash: bytes,
    state_root: bytes,
    state: list[list[Any]],
    guard: CrashPointGuard | None = None,
) -> str:
    """Write one checkpoint; returns the snapshot file name.

    Two crash-guarded ops (snapshot write, fsync) plus one per pruned
    older snapshot — each a distinct crash point the sweep exercises.
    """
    content = {
        "format": FORMAT_VERSION,
        "meta": {
            "height": height,
            "wal_offset": wal_offset,
            "tip_hash": tip_hash.hex(),
            "state_root": state_root.hex(),
        },
        "body": {"state": state},
    }
    checksum = sha256(_canonical(content)).hex()
    blob = _canonical({"checksum": checksum, "content": content})
    name = snapshot_name(height)
    guarded_write(fs, guard, f"{root}/{name}", blob)
    guarded_fsync(fs, guard, f"{root}/{name}")
    for stale in _snapshot_names(fs, root)[:-KEEP_SNAPSHOTS]:
        guarded_remove(fs, guard, f"{root}/{stale}")
    return name


def _snapshot_names(fs: Filesystem, root: str) -> list[str]:
    """Snapshot file names under ``root``, oldest first."""
    return [
        name
        for name in fs.listdir(root)
        if name.startswith("snap-") and name.endswith(".json")
    ]


def _load_verified(fs: Filesystem, root: str, name: str) -> Snapshot | None:
    """Decode one snapshot file; None when missing, malformed, or
    failing its checksum — the caller falls back to an older file."""
    path = f"{root}/{name}"
    if not fs.exists(path):
        return None
    try:
        envelope = json.loads(fs.read(path))
        content = envelope["content"]
        if envelope["checksum"] != sha256(_canonical(content)).hex():
            return None
        if content.get("format") != FORMAT_VERSION:
            return None
        meta = content["meta"]
        return Snapshot(
            height=meta["height"],
            wal_offset=meta["wal_offset"],
            tip_hash=bytes.fromhex(meta["tip_hash"]),
            state_root=bytes.fromhex(meta["state_root"]),
            state=content["body"]["state"],
            source=name,
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None


def load_latest(fs: Filesystem, root: str) -> Snapshot | None:
    """The newest snapshot that verifies, or None.

    The scan goes newest-first (file names embed the height, so
    lexicographic order is checkpoint order) and skips a corrupt newest
    file in favour of the retained older generation.
    """
    for name in reversed(_snapshot_names(fs, root)):
        snapshot = _load_verified(fs, root, name)
        if snapshot is not None:
            return snapshot
    return None
