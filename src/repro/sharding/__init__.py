"""Sharded multi-channel scale-out (ROADMAP "[scale-out]").

Every per-channel optimisation so far still funnels all traffic through
one orderer and one commit path.  This package removes that ceiling by
consistent-hash-mapping views (and their keys) onto N independent
Fabric channels — each with its own orderer, peers, and durable stores
— and keeping single-view traffic entirely shard-local.  Writes that
span shards go through a hardened two-phase-commit layer: the
coordinator/shard contract pair the paper's multi-chain baseline
introduced, made crash-safe (idempotent decide and commit, lock release
on re-prepare, WAL-backed coordinator state), and the one coordinator
loop the baseline runs too.  A view lives on one shard: its
:class:`~repro.views.manager.ViewManager` is built on
``ShardedGateway.on(i)``, so ``InvariantMonitor(sharded.shards[i])``
holds it to the view oracle like any single-channel manager.

Public surface:

- :class:`ConsistentHashRing` — deterministic view → shard placement.
- :class:`CoordinatorContract` / :class:`ShardContract` — the shared
  cross-shard 2PC chaincodes (``repro.baseline`` runs the same ones,
  so the baseline and the scale-out path run identical logic).
- :class:`TwoPhaseCoordinator` — the one crash-safe 2PC driver (the
  baseline's too) with a write-ahead decision log; every
  ``InvariantMonitor.check()`` holds its decisions all-or-nothing.
- :class:`ShardedNetwork` — N channels + router, a
  :class:`~repro.sharding.network.MultiChainDeployment` as the
  baseline is; a shard goes dark only through a fault plan.
- :class:`ShardedGateway` — one client identity on every shard.
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
    "TwoPhaseCoordinator",
]
