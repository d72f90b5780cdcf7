"""Durability layer: write-ahead logs, checkpointed snapshots, recovery.

See ``docs/PERSISTENCE.md`` for the on-disk formats and the recovery
protocol.  Public surface:

- :class:`StorageRuntime` — one network's durability (built when
  ``NetworkConfig.storage_backend`` / ``REPRO_STORAGE_BACKEND``
  resolves to a medium).
- :class:`NodeStore` / :class:`OwnerStore` — per-node WAL + snapshots,
  per-owner TLC journal.
- :class:`WriteAheadLog`, snapshot read/write helpers, the injectable
  :class:`Filesystem` implementations, and :class:`CrashPointGuard`
  for deterministic crash injection.
- :func:`verify_restart` — the shadow-replica durability check used by
  the invariant monitor.
"""

from repro.storage.crashpoints import CrashPointGuard
from repro.storage.fs import DiskFilesystem, Filesystem, MemoryFilesystem
from repro.storage.node import (
    NodeStore,
    RecoveryReport,
    StorageRuntime,
    verify_restart,
)
from repro.storage.owner import OwnerStore
from repro.storage.snapshot import (
    KEEP_SNAPSHOTS,
    Snapshot,
    load_latest,
    snapshot_name,
    write_snapshot,
)
from repro.storage.wal import (
    MAX_RECORD_BYTES,
    WalReplay,
    WriteAheadLog,
    encode_payload,
    encode_record,
)

__all__ = [
    "CrashPointGuard",
    "DiskFilesystem",
    "Filesystem",
    "KEEP_SNAPSHOTS",
    "MAX_RECORD_BYTES",
    "MemoryFilesystem",
    "NodeStore",
    "OwnerStore",
    "RecoveryReport",
    "Snapshot",
    "StorageRuntime",
    "WalReplay",
    "WriteAheadLog",
    "encode_payload",
    "encode_record",
    "load_latest",
    "snapshot_name",
    "verify_restart",
    "write_snapshot",
]
