"""Consistent-hash placement of views onto shards.

The ring hashes each shard name at ``vnodes`` positions on a 64-bit
circle (sha256-derived, so placement is identical across processes,
platforms, and Python hash randomisation) and places a key on the
first shard point at or clockwise from the key's own hash.  Properties
the sharding layer depends on, and the test suite pins:

- **Deterministic**: placement is a pure function of (shard names,
  vnodes, key) — no RNG, no insertion order sensitivity.
- **Bounded movement**: adding one shard moves only the keys whose
  arc lands on that shard's points — on average ``1/N`` of the key
  space, never a full reshuffle.
- **Balanced**: with the default 64 vnodes per shard, key counts per
  shard stay within a small factor of each other.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.errors import WorkloadError

#: Virtual nodes per shard.  More vnodes → smoother balance at the cost
#: of a larger (still tiny) ring; 64 keeps worst-case imbalance under
#: ~1.5x for realistic shard counts.
DEFAULT_VNODES = 64


def _hash64(data: str) -> int:
    """First 8 bytes of sha256 as an unsigned int (stable everywhere)."""
    return int.from_bytes(hashlib.sha256(data.encode()).digest()[:8], "big")


class ConsistentHashRing:
    """Maps keys (view names, state keys, users) onto named shards."""

    def __init__(self, shards: list[str], vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise WorkloadError(f"ring needs vnodes >= 1, got {vnodes}")
        if len(set(shards)) != len(shards):
            raise WorkloadError(f"duplicate shard names in {shards!r}")
        self.vnodes = vnodes
        self._shards: list[str] = []
        #: Sorted ring positions and the shard owning each.
        self._points: list[int] = []
        self._owners: list[str] = []
        for shard in shards:
            self.add_shard(shard)

    # -- membership ----------------------------------------------------------

    def add_shard(self, shard: str) -> None:
        if shard in self._shards:
            raise WorkloadError(f"shard {shard!r} already on the ring")
        self._shards.append(shard)
        for vnode in range(self.vnodes):
            point = _hash64(f"shard:{shard}#{vnode}")
            index = bisect.bisect_left(self._points, point)
            # sha256 collisions on 64 bits are not a practical concern,
            # but ties must still resolve deterministically: the
            # lexicographically smaller shard name wins the point.
            if (
                index < len(self._points)
                and self._points[index] == point
                and self._owners[index] <= shard
            ):
                continue
            self._points.insert(index, point)
            self._owners.insert(index, shard)

    # -- placement -----------------------------------------------------------

    def shard_for(self, key: str) -> str:
        """The shard owning ``key`` (first point clockwise of its hash)."""
        if not self._points:
            raise WorkloadError("cannot place keys on an empty ring")
        index = bisect.bisect_right(self._points, _hash64(f"key:{key}"))
        if index == len(self._points):
            index = 0  # wrap past the top of the circle
        return self._owners[index]

    def index_for(self, key: str) -> int:
        """The insertion-order index of ``key``'s shard."""
        return self._shards.index(self.shard_for(key))
