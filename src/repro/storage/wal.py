"""The write-ahead log: checksummed, length-prefixed append-only records.

Record framing (little-endian)::

    [u32 payload_length][u32 crc32(payload)][payload bytes]

Payloads are canonical JSON (sorted keys, compact separators), so a
record's bytes are a pure function of its content and replay is
deterministic.  The framing makes two failure modes detectable:

- **Torn tail** — a crash mid-append leaves a final record whose
  length prefix overruns the file or whose CRC fails.  Replay stops at
  the last intact record and reports the torn offset so recovery can
  truncate it; the lost suffix is re-fetched from healthy peers via
  the ordinary block catch-up path.
- **Mid-log corruption** — a flipped byte anywhere invalidates that
  record's CRC.  Replay likewise stops there: everything after a
  corrupt record is untrusted (lengths no longer frame reliably), and
  catch-up re-fetches the difference.

The WAL is never rewritten on snapshot: a snapshot's ``meta`` records
the WAL byte offset it covers, and recovery applies *state* only from
records past that offset (the cheap structural chain rebuild still
reads the whole log, like Fabric's block store).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any

from repro.storage.crashpoints import (
    CrashPointGuard,
    guarded_append,
    guarded_fsync,
)
from repro.storage.fs import Filesystem

_HEADER = struct.Struct("<II")

#: Framing sanity bound: no single record payload exceeds this, so a
#: corrupt length prefix cannot send replay on a gigabyte seek.
MAX_RECORD_BYTES = 64 * 1024 * 1024


def _json_default(value: Any) -> dict[str, str]:
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    raise TypeError(f"WAL payloads cannot serialise {type(value).__name__}")


def _json_revive(obj: dict[str, Any]) -> Any:
    if len(obj) == 1 and "__bytes__" in obj:
        return bytes.fromhex(obj["__bytes__"])
    return obj


def encode_payload(payload: dict[str, Any]) -> bytes:
    """Canonical JSON with a tagged escape for ``bytes`` values.

    Owner journals carry raw ciphertext (view-data entries), so bytes
    are encoded as ``{"__bytes__": hex}`` and revived on decode.  The
    tag dict shape is reserved: a payload must not contain a literal
    single-key ``__bytes__`` mapping of its own.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_json_default
    ).encode()


def decode_payload(data: bytes) -> Any:
    return json.loads(data, object_hook=_json_revive)


def encode_record(payload: dict[str, Any]) -> bytes:
    data = encode_payload(payload)
    return _HEADER.pack(len(data), zlib.crc32(data) & 0xFFFFFFFF) + data


@dataclass
class WalReplay:
    """Outcome of scanning a WAL."""

    #: Decoded payloads of every intact record, in append order.
    records: list[dict[str, Any]]
    #: Byte offset just past the last intact record.
    end_offset: int
    #: Whether bytes past ``end_offset`` failed framing (torn/corrupt).
    torn: bool


class WriteAheadLog:
    """One append-only log file with CRC-framed JSON records."""

    def __init__(
        self,
        fs: Filesystem,
        path: str,
        guard: CrashPointGuard | None = None,
    ):
        self.fs = fs
        self.path = path
        self.guard = guard

    def size(self) -> int:
        """Current byte length (0 when the log does not exist yet)."""
        return self.fs.size(self.path) if self.fs.exists(self.path) else 0

    def append(self, payload: dict[str, Any]) -> int:
        """Durably append one record; returns the new end offset.

        Two crash-guarded ops: the data append (which a torn-write
        crash can leave partial) and the fsync that makes it durable.
        """
        record = encode_record(payload)
        guarded_append(self.fs, self.guard, self.path, record)
        guarded_fsync(self.fs, self.guard, self.path)
        return self.size()

    def replay(self, from_offset: int = 0) -> WalReplay:
        """Decode records from ``from_offset``; stop at the first bad frame.

        Reads bypass the crash guard — recovery itself is not
        crash-injected (single-fault model).
        """
        raw = self.fs.read(self.path) if self.fs.exists(self.path) else b""
        records: list[dict[str, Any]] = []
        offset = max(from_offset, 0)
        while True:
            if offset + _HEADER.size > len(raw):
                break
            length, crc = _HEADER.unpack_from(raw, offset)
            start = offset + _HEADER.size
            if length > MAX_RECORD_BYTES or start + length > len(raw):
                break
            data = raw[start : start + length]
            if zlib.crc32(data) & 0xFFFFFFFF != crc:
                break
            try:
                records.append(decode_payload(data))
            except json.JSONDecodeError:
                break
            offset = start + length
        return WalReplay(
            records=records, end_offset=offset, torn=offset < len(raw)
        )

    def truncate_to(self, offset: int) -> None:
        """Drop everything past ``offset`` (torn-tail repair; unguarded)."""
        if self.fs.exists(self.path):
            self.fs.truncate(self.path, offset)
