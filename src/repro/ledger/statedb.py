"""Versioned key-value world state (the LevelDB stand-in).

Fabric peers keep contract state in a local database; transaction
validation uses multi-version concurrency control — each value carries
the version (block number, position in block) of the transaction that
wrote it, and a transaction is invalidated if any key it read has since
changed (paper §5.1's validation phase).

Keys are namespaced ``"<chaincode>~<key>"`` by the chaincode layer;
this module treats keys as opaque strings.

Scans are a bisect range over a maintained sorted-key index (one
``insort`` per *new* key); ``tests/ledger/test_statedb.py`` and
``tests/properties`` compare them with a ``sorted()`` pass over the
whole key space, which is what the seed did per scan.

Writes are observable: a listener registered via :meth:`subscribe`
(e.g. an incremental Merkle digest) is told about every ``put`` and
``delete``, which is what lets per-block state-root maintenance cost
O(dirty·log n) instead of a full rebuild.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Any, Iterator, Protocol


@dataclass(frozen=True, order=True)
class Version:
    """MVCC version stamp: position of the writing transaction."""

    block: int
    position: int


@dataclass(frozen=True)
class StateEntry:
    """A value together with its MVCC version."""

    value: Any
    version: Version


class StateListener(Protocol):
    """What a write observer (e.g. an incremental digest) implements."""

    def on_put(self, key: str, value: Any) -> None: ...

    def on_delete(self, key: str) -> None: ...


class StateDatabase:
    """In-memory versioned KV store with prefix scans and byte accounting."""

    def __init__(self):
        self._data: dict[str, StateEntry] = {}
        self._sorted_keys: list[str] = []
        self._listeners: list[StateListener] = []

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def subscribe(self, listener: StateListener) -> None:
        """Register a write observer; it sees every subsequent mutation.

        Values must be treated as immutable once written — an observer
        (like the incremental state digest) encodes a written value
        once, the next time a root is asked for, and never again until
        the key is re-put, so mutating a stored object in place without
        re-putting it is unsupported (it was already undefined under
        the reference digest, which encodes at root time).
        """
        self._listeners.append(listener)

    def get(self, key: str) -> Any | None:
        """Current value for ``key`` (None when absent)."""
        entry = self._data.get(key)
        return entry.value if entry is not None else None

    def get_with_version(self, key: str) -> StateEntry | None:
        """Value plus version, for read-set construction."""
        return self._data.get(key)

    def version_of(self, key: str) -> Version | None:
        """Version only (None when absent)."""
        entry = self._data.get(key)
        return entry.version if entry is not None else None

    def put(self, key: str, value: Any, version: Version) -> None:
        """Write ``value`` at ``version`` (a committed transaction's stamp)."""
        if key not in self._data:
            insort(self._sorted_keys, key)
        self._data[key] = StateEntry(value=value, version=version)
        for listener in self._listeners:
            listener.on_put(key, value)

    def delete(self, key: str) -> None:
        """Remove a key (no tombstone is kept; ledger history remains)."""
        if self._data.pop(key, None) is not None:
            index = bisect_left(self._sorted_keys, key)
            del self._sorted_keys[index]
            for listener in self._listeners:
                listener.on_delete(key)

    def scan_prefix(self, prefix: str) -> Iterator[tuple[str, Any]]:
        """Yield ``(key, value)`` for keys starting with ``prefix``.

        Iteration order is sorted by key, mirroring LevelDB's ordered
        iteration, so results are deterministic.  The matching range is
        located by bisect on the maintained index — O(log n + matches)
        instead of a full O(n log n) re-sort.
        """
        keys = self._sorted_keys
        start = bisect_left(keys, prefix)
        end = start
        while end < len(keys) and keys[end].startswith(prefix):
            end += 1
        for key in keys[start:end]:
            yield key, self._data[key].value

    def keys(self) -> list[str]:
        """All keys, sorted."""
        return list(self._sorted_keys)

    def size_bytes(self) -> int:
        """Approximate storage footprint of the current state.

        Uses canonical serialized sizes of keys and values; used for the
        storage-overhead experiment (Fig 9).
        """
        import json

        total = 0
        for key, entry in self._data.items():
            total += len(key.encode("utf-8"))
            value = entry.value
            if isinstance(value, bytes):
                total += len(value)
            else:
                total += len(
                    json.dumps(value, sort_keys=True, default=_bytes_hex).encode()
                )
        return total

    def snapshot(self) -> dict[str, Any]:
        """Plain dict copy of current values (for tests and digests)."""
        return {key: entry.value for key, entry in self._data.items()}

    def entries(self) -> list[tuple[str, StateEntry]]:
        """All (key, entry) pairs with versions, sorted by key — the
        checkpoint serialization order used by ``repro.storage``."""
        return [(key, self._data[key]) for key in sorted(self._data)]


def _bytes_hex(value: Any) -> str:
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    return str(value)
