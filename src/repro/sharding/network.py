"""Multi-chain deployments: chains in one environment that 2PC spans.

:class:`MultiChainDeployment` is the one surface
:class:`~repro.sharding.crossshard.TwoPhaseCoordinator` drives.  Its two
deployments only build their chains and pass data: :class:`ShardedNetwork`
(``shard_count`` complete channels; a :class:`ConsistentHashRing` places
every key and every transaction's coordinator records, so single-view
traffic touches one orderer and one commit path) and
:class:`repro.baseline.CrossChainDeployment` (the paper's AHL baseline:
a coordinating main chain plus one chain per view).  At
``shard_count=1`` the shard is named ``"main"`` and built as the
unsharded reference is, byte for byte.

A chain is reachable while ``chain.link.up("chain")``: a whole-chain
outage is a ``crash_chain`` or ``partition_chain`` event of a fault plan
on that chain's own injector (:mod:`repro.faults.plan`).  The ring does
not re-place keys while a shard is dark; the shard comes back.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.errors import FaultInjectionError, TwoPhaseCommitError, WorkloadError
from repro.fabric.config import NetworkConfig
from repro.fabric.identity import User
from repro.fabric.network import CommitNotice, FabricNetwork, Gateway
from repro.sim import Counter, Environment, Event, TimeSeries
from repro.sharding.crossshard import (
    CoordinatorContract,
    CoordinatorLog,
    CrossShardResult,
    ShardContract,
    assert_atomic,
)
from repro.sharding.ring import ConsistentHashRing


def shard_names(count: int) -> list[str]:
    """Channel names for an N-shard deployment.

    The single-shard deployment reuses the unsharded chain name so its
    peer ids (``main-peer0`` …) and every derived byte stay identical
    to the reference network.
    """
    if count < 1:
        raise WorkloadError(f"shard count must be >= 1, got {count}")
    if count == 1:
        return ["main"]
    return [f"shard-{i}" for i in range(count)]


class DeploymentMetrics:
    """The coordinator's outcome tally, plus the baseline's participant
    transactions and latencies per request."""

    def __init__(self) -> None:
        self.begun = Counter("begun")
        self.committed = Counter("committed")
        self.aborted = Counter("aborted")
        self.crosschain_txs = Counter("crosschain")
        self.latencies_ms = TimeSeries("latency_ms")


class MultiChainDeployment:
    """Chains in one environment, as the 2PC coordinator reads them.

    ``chains`` maps each key the coordinator uses (a shard index, a
    baseline view name, ``"main"``) to its network, in construction
    order; ``names`` maps each participant's key to the name a
    ``begin`` record gives it.  A transaction's coordinator records go
    on ``place(xid)`` or, while that chain is dark, on the first
    reachable chain of ``coordinators`` — the chains that can
    coordinate, each told every participant.  The four policy values
    are the protocol's data (see
    :class:`~repro.sharding.crossshard.TwoPhaseCoordinator`).
    """

    def __init__(
        self, env: Environment, config: NetworkConfig,
        chains: dict[Any, FabricNetwork], names: dict[Any, str],
        place: Callable[[str], Any], coordinators: list, *,
        relays_votes: bool, prepare_timeout_ms: float, max_retries: int,
        retry_backoff_ms: float,
    ):
        self.env = env
        self.config = config
        self.chains = chains
        self.names = names
        self._place = place
        self._coordinators = coordinators
        self.relays_votes = relays_votes
        self.prepare_timeout_ms = prepare_timeout_ms
        self.max_retries = max_retries
        self.retry_backoff_ms = retry_backoff_ms
        self.metrics = DeploymentMetrics()
        participants = {name: chains[key] for key, name in names.items()}
        for key in coordinators:
            chains[key].participants.update(participants)

    def register_user(self, user_id: str, organization: str = "org1") -> dict[Any, User]:
        """One identity per chain (each chain has its own MSP)."""
        return {
            key: chain.register_user(user_id, organization)
            for key, chain in self.chains.items()
        }

    def run(self, until: Any = None):
        return self.env.run(until=until)

    # -- what the coordinator reads --------------------------------------------

    def chain(self, key) -> FabricNetwork:
        return self.chains[key]

    def participant_name(self, key) -> str:
        return self.names[key]

    def shard_reachable(self, key) -> bool:
        """Can the router reach this chain right now?"""
        return self.chains[key].link.up("chain")

    def coordinator_shard_for(self, xid: str):
        """Which chain hosts a 2PC transaction's coordinator records."""
        for key in (self._place(xid), *self._coordinators):
            if self.shard_reachable(key):
                return key
        raise TwoPhaseCommitError(
            f"{xid}: no reachable shard can coordinate "
            "(every shard is dark or down)"
        )

    def count_cross_shard(self, event: str) -> None:
        getattr(self.metrics, event).increment()

    def verify_atomicity(self, result: CrossShardResult, views=None) -> None:
        """All-or-nothing for one transaction, on the chain that decided
        it (``views``, what its ``begin`` names, is read from there);
        raises :class:`~repro.errors.TwoPhaseCommitError`."""
        assert_atomic(self.chains[result.coordinator_shard], result.xid)

    def coordinator_log(self) -> CoordinatorLog:
        """The 2PC driver's write-ahead journal, in the first coordinating
        chain's durability runtime (not the client-side driver's memory)."""
        return CoordinatorLog.on(self.chains[self._coordinators[0]])

    # -- integrity / observability ---------------------------------------------

    def verify_convergence(self) -> None:
        """All peers of every reachable chain hold identical chains/state."""
        for key, network in self.chains.items():
            if self.shard_reachable(key):
                network.verify_convergence()

    def queue_depth(self) -> int:
        """Transactions queued at reachable chains' orderers: the
        back-pressure admission control watches."""
        return sum(
            network.queue_depth()
            for key, network in self.chains.items()
            if self.shard_reachable(key)
        )

    def total_storage_bytes(self) -> int:
        """Combined footprint of every chain."""
        return sum(network.total_storage_bytes() for network in self.chains.values())

    def fingerprint(self) -> dict[str, dict[str, Any]]:
        """Per-chain (tip hash, height, state root): the byte-identity
        anchor of the single-shard differential test."""
        return {
            network.chain_name: {
                "height": peer.chain.height,
                "tip_hash": peer.chain.tip_hash.hex(),
                "state_root": peer.current_state_root().hex(),
            }
            for network in self.chains.values()
            for peer in [network.reference_peer]
        }

    def per_shard_stats(self) -> list[dict[str, Any]]:
        """Per-chain balance counters for the bench harness ``extra``."""
        return [
            {
                "shard": network.chain_name,
                # committed, aborted, rebased
                **network.phase_wall.commit_outcomes()["totals"],
                "blocks": len(network.block_log),
                "height": network.reference_peer.chain.height,
                "orderer_queue_peak": network.orderer_queue_peak,
                "mvcc_retries": network.mvcc_retries,
                "reachable": self.shard_reachable(key),
            }
            for key, network in self.chains.items()
        ]

    def cross_shard_stats(self) -> dict[str, int]:
        return {
            event: getattr(self.metrics, event).value
            for event in ("begun", "committed", "aborted")
        }

    def harness_extra(self) -> dict[str, Any]:
        """The ``extra`` block benchmark results carry: per-chain
        balance plus cross-shard transaction counts."""
        return {
            "shard_count": len(self.chains),
            "per_shard": self.per_shard_stats(),
            "cross_shard": self.cross_shard_stats(),
        }


class ShardedNetwork(MultiChainDeployment):
    """N independent Fabric channels behind one consistent-hash router.

    Its 2PC relays no votes, has no prepare timeout and does not retry:
    a refused transaction aborts, and its caller may resubmit.
    """

    def __init__(
        self,
        env: Environment | None = None,
        config: NetworkConfig | None = None,
        shard_count: int = 1,
    ):
        from repro import build_network

        env = env or Environment()
        config = config or NetworkConfig()
        names = shard_names(shard_count)
        self.ring = ConsistentHashRing(names)
        self.shards: list[FabricNetwork] = [
            build_network(config, env, chain_name=name) for name in names
        ]
        # Every shard can participate in (and coordinate) cross-shard
        # transactions.  Installation is a pure registry insert — no
        # identities, no randomness — so the N=1 deployment stays
        # byte-identical to the unsharded reference.
        for network in self.shards:
            network.install_chaincode(CoordinatorContract())
            network.install_chaincode(ShardContract())
        keys = list(range(shard_count))
        super().__init__(
            env, config, dict(enumerate(self.shards)),
            {key: f"shard-{key}" for key in keys}, self.ring.index_for, keys,
            relays_votes=False, prepare_timeout_ms=math.inf, max_retries=0,
            retry_backoff_ms=0.0,
        )

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_index(self, key: str) -> int:
        """The shard owning ``key`` (view name, state key, user id)."""
        return self.ring.index_for(key)

    def route(self, key: str) -> int:
        """The index of ``key``'s home shard, for traffic that must reach
        it now (raises while that shard is dark — shard-local traffic
        has nowhere else to go)."""
        index = self.shard_index(key)
        if not self.shard_reachable(index):
            raise FaultInjectionError(
                f"shard {self.shards[index].chain_name!r} (home of "
                f"{key!r}) is unreachable"
            )
        return index


class ShardedGateway:
    """One logical client identity registered on every shard.

    Each shard has its own MSP, so the client holds one
    :class:`~repro.fabric.identity.User` per shard (same user id); the
    per-key routing methods pick the shard via the network's ring, and
    :meth:`on` exposes the plain per-shard
    :class:`~repro.fabric.network.Gateway` for view managers and other
    shard-local machinery.
    """

    def __init__(
        self,
        sharded: ShardedNetwork,
        user_id: str,
        organization: str = "org1",
    ):
        self.sharded = sharded
        self.user_id = user_id
        users = sharded.register_user(user_id, organization)
        self.gateways: list[Gateway] = [
            Gateway(sharded.chains[key], user) for key, user in users.items()
        ]

    def on(self, shard: int) -> Gateway:
        return self.gateways[shard]

    def shard_of(self, key: str) -> int:
        return self.sharded.shard_index(key)

    # -- routed operations ---------------------------------------------------

    def invoke(
        self,
        key: str,
        chaincode: str,
        fn: str,
        args: dict[str, Any] | None = None,
        **proposal_fields: Any,
    ) -> CommitNotice:
        """Synchronous invoke on ``key``'s home shard."""
        gateway = self.gateways[self.sharded.route(key)]
        return gateway.invoke(chaincode, fn, args, **proposal_fields)

    def submit_async(
        self,
        key: str,
        chaincode: str,
        fn: str,
        args: dict[str, Any] | None = None,
        **proposal_fields: Any,
    ) -> Event:
        """Asynchronous invoke on ``key``'s home shard."""
        gateway = self.gateways[self.sharded.route(key)]
        return gateway.submit_async(chaincode, fn, args, **proposal_fields)

    def query(
        self, key: str, chaincode: str, fn: str, args: dict[str, Any] | None = None
    ) -> Any:
        """Local read on ``key``'s home shard."""
        return self.gateways[self.shard_of(key)].query(chaincode, fn, args)
