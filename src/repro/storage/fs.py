"""Injectable filesystems for the durability layer.

Every durable structure (WAL, snapshots) talks to a
:class:`Filesystem` instead of the OS directly, for two reasons:

- **Hermetic tests.**  :class:`MemoryFilesystem` gives crash-point and
  recovery tests a filesystem they can inspect, corrupt, and truncate
  byte-by-byte without touching disk, so the whole durability suite
  runs in-process and deterministic.
- **A real-dir mode.**  :class:`DiskFilesystem` maps the same paths
  onto a root directory with atomic writes (temp + ``os.replace``) and
  real ``fsync``, so a network configured with
  ``storage_backend="disk"`` leaves an inspectable on-disk layout.

Paths are plain ``/``-separated strings relative to the filesystem
root; parent "directories" are implicit (created on demand under the
disk implementation, purely notional in memory).
"""

from __future__ import annotations

import os
import tempfile
from abc import ABC, abstractmethod

from repro.errors import StorageError


class Filesystem(ABC):
    """The minimal surface the WAL and snapshot writers need."""

    name: str

    @abstractmethod
    def exists(self, path: str) -> bool: ...

    @abstractmethod
    def read(self, path: str) -> bytes: ...

    @abstractmethod
    def write(self, path: str, data: bytes) -> None:
        """Replace ``path`` with ``data`` **atomically**: after a crash
        the file holds either the old content or the new, never a
        partial write."""

    @abstractmethod
    def append(self, path: str, data: bytes) -> None: ...

    @abstractmethod
    def fsync(self, path: str) -> None: ...

    @abstractmethod
    def size(self, path: str) -> int: ...

    @abstractmethod
    def truncate(self, path: str, length: int) -> None: ...

    @abstractmethod
    def remove(self, path: str) -> None: ...

    @abstractmethod
    def listdir(self, path: str) -> list[str]:
        """Names of files directly under ``path``, sorted; empty list
        when the directory does not exist."""


class MemoryFilesystem(Filesystem):
    """In-memory filesystem: the hermetic test substrate.

    Files are plain ``bytearray`` buffers; ``fsync`` only counts (the
    buffers are always "durable"), which is the model simplification
    the crash-point layer documents — fsync calls still exist as
    *crash windows*, they are just not a visibility barrier.
    """

    name = "memory"

    def __init__(self) -> None:
        self._files: dict[str, bytearray] = {}
        self.fsync_count = 0

    def _require(self, path: str) -> bytearray:
        data = self._files.get(path)
        if data is None:
            raise StorageError(f"memory fs: no such file {path!r}")
        return data

    def exists(self, path: str) -> bool:
        return path in self._files

    def read(self, path: str) -> bytes:
        return bytes(self._require(path))

    def write(self, path: str, data: bytes) -> None:
        self._files[path] = bytearray(data)

    def append(self, path: str, data: bytes) -> None:
        self._files.setdefault(path, bytearray()).extend(data)

    def fsync(self, path: str) -> None:
        self.fsync_count += 1

    def size(self, path: str) -> int:
        return len(self._require(path))

    def truncate(self, path: str, length: int) -> None:
        data = self._require(path)
        del data[length:]

    def remove(self, path: str) -> None:
        self._files.pop(path, None)

    def listdir(self, path: str) -> list[str]:
        prefix = path.rstrip("/") + "/"
        names = {
            rest.split("/", 1)[0]
            for name in self._files
            if name.startswith(prefix)
            for rest in [name[len(prefix):]]
            if "/" not in rest
        }
        return sorted(names)


class DiskFilesystem(Filesystem):
    """Real-directory mode: the same layout persisted under ``root``."""

    name = "disk"

    def __init__(self, root: str | None = None):
        if root is None:
            root = tempfile.mkdtemp(prefix="repro-storage-")
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _host(self, path: str) -> str:
        host = os.path.normpath(os.path.join(self.root, path))
        if not host.startswith(self.root):
            raise StorageError(f"path {path!r} escapes the storage root")
        return host

    def exists(self, path: str) -> bool:
        return os.path.isfile(self._host(path))

    def read(self, path: str) -> bytes:
        try:
            with open(self._host(path), "rb") as handle:
                return handle.read()
        except FileNotFoundError as exc:
            raise StorageError(f"disk fs: no such file {path!r}") from exc

    def write(self, path: str, data: bytes) -> None:
        host = self._host(path)
        os.makedirs(os.path.dirname(host), exist_ok=True)
        fd, temp = tempfile.mkstemp(
            dir=os.path.dirname(host), prefix=".tmp-", suffix=".part"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, host)
        except BaseException:
            if os.path.exists(temp):
                os.unlink(temp)
            raise

    def append(self, path: str, data: bytes) -> None:
        host = self._host(path)
        os.makedirs(os.path.dirname(host), exist_ok=True)
        with open(host, "ab") as handle:
            handle.write(data)

    def fsync(self, path: str) -> None:
        host = self._host(path)
        if not os.path.isfile(host):
            return
        fd = os.open(host, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def size(self, path: str) -> int:
        try:
            return os.path.getsize(self._host(path))
        except OSError as exc:
            raise StorageError(f"disk fs: no such file {path!r}") from exc

    def truncate(self, path: str, length: int) -> None:
        os.truncate(self._host(path), length)

    def remove(self, path: str) -> None:
        try:
            os.unlink(self._host(path))
        except FileNotFoundError:
            pass

    def listdir(self, path: str) -> list[str]:
        host = self._host(path)
        if not os.path.isdir(host):
            return []
        return sorted(
            name
            for name in os.listdir(host)
            if os.path.isfile(os.path.join(host, name))
            and not name.startswith(".tmp-")
        )
