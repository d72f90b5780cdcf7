"""Consistent-hash ring: determinism, balance, bounded movement."""

import pytest

from repro.errors import WorkloadError
from repro.fabric.config import NetworkConfig
from repro.sharding import ConsistentHashRing, ShardedNetwork
from repro.sharding.ring import _hash64

KEYS = [f"view-{i:04d}" for i in range(2000)]


class TestDeterminism:
    def test_same_inputs_same_placement(self):
        a = ConsistentHashRing(["s0", "s1", "s2", "s3"])
        b = ConsistentHashRing(["s0", "s1", "s2", "s3"])
        assert [a.shard_for(k) for k in KEYS] == [b.shard_for(k) for k in KEYS]

    def test_placement_independent_of_insertion_order(self):
        """shard_for depends only on the member *set*, not on the order
        shards joined the ring."""
        a = ConsistentHashRing(["s0", "s1", "s2", "s3"])
        b = ConsistentHashRing(["s3", "s1", "s0", "s2"])
        assert {k: a.shard_for(k) for k in KEYS} == {
            k: b.shard_for(k) for k in KEYS
        }

    def test_hash_is_sha256_derived_not_pythonhash(self):
        # Pinned value: placement must survive hash randomisation and
        # platform differences.  sha256("key:anchor")[:8] big-endian.
        assert _hash64("key:anchor") == 0x183A5B07D81CDD52

    def test_incremental_equals_fresh(self):
        grown = ConsistentHashRing(["s0"])
        grown.add_shard("s1")
        grown.add_shard("s2")
        fresh = ConsistentHashRing(["s0", "s1", "s2"])
        assert [grown.shard_for(k) for k in KEYS] == [
            fresh.shard_for(k) for k in KEYS
        ]


class TestBalance:
    def test_distribution_within_bounds(self):
        ring = ConsistentHashRing([f"s{i}" for i in range(8)])
        counts = {f"s{i}": 0 for i in range(8)}
        for key in KEYS:
            counts[ring.shard_for(key)] += 1
        assert sum(counts.values()) == len(KEYS)
        expected = len(KEYS) / 8
        for shard, count in counts.items():
            assert expected / 2 <= count <= expected * 2, (
                f"{shard} holds {count} of {len(KEYS)} keys"
            )


class TestBoundedMovement:
    def test_adding_a_shard_moves_about_one_nth(self):
        ring = ConsistentHashRing([f"s{i}" for i in range(4)])
        before = {k: ring.shard_for(k) for k in KEYS}
        ring.add_shard("s4")
        after = {k: ring.shard_for(k) for k in KEYS}
        moved = [k for k in KEYS if before[k] != after[k]]
        # All movement lands on the new shard; nothing shuffles
        # between the old shards.
        assert all(after[k] == "s4" for k in moved)
        # Expected 1/5 of the key space; allow generous slack.
        assert 0.05 <= len(moved) / len(KEYS) <= 0.40


class TestValidation:
    def test_duplicate_shard_rejected(self):
        with pytest.raises(WorkloadError, match="duplicate"):
            ConsistentHashRing(["s0", "s0"])
        ring = ConsistentHashRing(["s0"])
        with pytest.raises(WorkloadError, match="already"):
            ring.add_shard("s0")

    def test_empty_ring_cannot_place(self):
        ring = ConsistentHashRing([])
        with pytest.raises(WorkloadError, match="empty ring"):
            ring.shard_for("k")

    def test_vnodes_floor(self):
        with pytest.raises(WorkloadError, match="vnodes"):
            ConsistentHashRing(["s0"], vnodes=0)


class TestRoutingAcrossBackends:
    def test_routing_identical_on_every_backend_combination(self):
        """Placement is a pure hash — the commit backend must not
        influence which shard a key routes to."""
        routes = []
        for commit in ("occ", "reference"):
            sharded = ShardedNetwork(
                config=NetworkConfig(
                    real_signatures=False,
                    commit_backend=commit,
                ),
                shard_count=4,
            )
            routes.append([sharded.shard_index(k) for k in KEYS[:500]])
        assert all(route == routes[0] for route in routes[1:])
