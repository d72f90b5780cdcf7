"""Sharded multi-channel scale-out (ROADMAP "[scale-out]").

Every per-channel optimisation so far still funnels all traffic through
one orderer and one commit path.  This package removes that ceiling by
consistent-hash-mapping views (and their keys) onto N independent
Fabric channels — each with its own orderer, peers, and durable stores
— and keeping single-view traffic entirely shard-local.  Cross-view
requests and RBAC relation updates whose writes span shards go through
a hardened two-phase-commit layer: the coordinator/shard contract pair
the paper's multi-chain baseline introduced, made crash-safe
(idempotent decide and commit, lock release on re-prepare, WAL-backed
coordinator state), and the one coordinator loop the baseline runs too.

Public surface:

- :class:`ConsistentHashRing` — deterministic view → shard placement
  with bounded key movement on resharding.
- :class:`CoordinatorContract` / :class:`ShardContract` — the shared
  cross-shard 2PC chaincodes (``repro.baseline`` runs the same ones,
  so the baseline and the scale-out path run identical logic).
- :class:`TwoPhaseCoordinator` — the one crash-safe 2PC driver (the
  baseline's too) with a write-ahead decision log; every
  ``InvariantMonitor.check()`` holds its decisions all-or-nothing.
- :class:`ShardedNetwork` — N channels + router + cross-shard layer.
- :class:`ShardedViewOwner` — shard-aware view manager placement
  (each view's manager, TLC service, and notary transactions live on
  the view's home shard).
"""

from repro.sharding.crossshard import (
    COORDINATOR_CHAINCODE,
    SHARD_CHAINCODE,
    CoordinatorContract,
    CoordinatorLog,
    CrossShardResult,
    CrossShardWrite,
    ShardContract,
    TwoPhaseCoordinator,
)
from repro.sharding.network import ShardedGateway, ShardedNetwork
from repro.sharding.ring import ConsistentHashRing
from repro.sharding.views import ShardedViewOwner

__all__ = [
    "COORDINATOR_CHAINCODE",
    "SHARD_CHAINCODE",
    "ConsistentHashRing",
    "CoordinatorContract",
    "CoordinatorLog",
    "CrossShardResult",
    "CrossShardWrite",
    "ShardContract",
    "ShardedGateway",
    "ShardedNetwork",
    "ShardedViewOwner",
    "TwoPhaseCoordinator",
]
