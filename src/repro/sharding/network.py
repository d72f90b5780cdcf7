"""The sharded deployment: N independent channels plus a router.

A :class:`ShardedNetwork` runs ``shard_count`` complete
:class:`~repro.fabric.network.FabricNetwork` instances — each with its
own orderer, peers, durable stores, and the full backend configuration
inherited from one :class:`~repro.fabric.config.NetworkConfig` — inside
a single simulation environment.  A :class:`ConsistentHashRing` over
the shard names decides where every view (and every state key) lives,
so single-view traffic (EI/ER/HI/HR requests, view queries, audits)
touches exactly one orderer and one commit path; only requests whose
writes genuinely span shards go through the cross-shard 2PC layer
(:mod:`repro.sharding.crossshard`).

With ``shard_count=1`` the single shard is named ``"main"`` and built
through the same :func:`repro.build_network` path as the unsharded
reference — peer ids, MSP registration order, and every transaction
byte are identical, which the differential suite pins (a sharded
deployment at N=1 *is* the reference deployment, plus two extra —
unused — contracts in the registry).

Whole-shard failure is modelled at this layer, not per peer:
:meth:`ShardedNetwork.crash_shard` loses the shard's entire in-memory
state (orderer and all peers at once — a rack power cut), and
:meth:`ShardedNetwork.recover_shard` rebuilds it purely from the PR 5
durable stores: ordered block log from the orderer's WAL, each peer
from its snapshot + WAL suffix + catch-up.  Surviving shards never
stop; the ring does not re-place keys on failure (the shard comes
back — this is crash-recovery, not membership change).
"""

from __future__ import annotations

import math
from typing import Any

from repro.errors import (
    FaultInjectionError,
    StorageError,
    TwoPhaseCommitError,
    WorkloadError,
)
from repro.fabric.config import NetworkConfig
from repro.fabric.network import CommitNotice, FabricNetwork, Gateway
from repro.sim import Environment, Event
from repro.sharding.crossshard import (
    CoordinatorContract,
    CoordinatorLog,
    ShardContract,
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


class ShardedNetwork:
    """N independent Fabric channels behind one consistent-hash router."""

    #: Its 2PC relays no votes, has no prepare timeout and does not
    #: retry: a refused transaction aborts, and its caller may resubmit.
    relays_votes = False
    prepare_timeout_ms = math.inf
    max_retries = 0
    retry_backoff_ms = 0.0

    def __init__(
        self,
        env: Environment | None = None,
        config: NetworkConfig | None = None,
        shard_count: int = 1,
        install_standard_contracts: bool = True,
    ):
        from repro import build_network

        self.env = env or Environment()
        self.config = config or NetworkConfig()
        names = shard_names(shard_count)
        self.ring = ConsistentHashRing(names)
        self.shards: list[FabricNetwork] = [
            build_network(
                self.config,
                self.env,
                chain_name=name,
                install_standard_contracts=install_standard_contracts,
            )
            for name in names
        ]
        # Every shard can participate in (and coordinate) cross-shard
        # transactions.  Installation is a pure registry insert — no
        # identities, no randomness — so the N=1 deployment stays
        # byte-identical to the unsharded reference.
        participants = {self.participant_name(i): n for i, n in enumerate(self.shards)}
        for network in self.shards:
            network.install_chaincode(CoordinatorContract())
            network.install_chaincode(ShardContract())
            network.participants.update(participants)
        #: Shard indices currently crashed (whole-shard outage).
        self.down: set[int] = set()
        #: Shard indices currently network-partitioned from the router.
        #: Unlike a crash, a partitioned shard keeps its memory and its
        #: in-flight work — it is dark, not dead — so healing needs no
        #: recovery, only re-admission to routing.
        self.partitioned: set[int] = set()
        self._cross_shard = {"begun": 0, "committed": 0, "aborted": 0}

    # -- placement (the router) ----------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_index(self, key: str) -> int:
        """The shard owning ``key`` (view name, state key, user id)."""
        return self.ring.index_for(key)

    def route(self, key: str) -> int:
        """The index of ``key``'s home shard, for traffic that must reach
        it now (raises while that shard is down or partitioned —
        shard-local traffic has nowhere else to go)."""
        index = self.shard_index(key)
        if not self.shard_reachable(index):
            state = "down" if index in self.down else "partitioned"
            raise FaultInjectionError(
                f"shard {self.shards[index].chain_name!r} (home of "
                f"{key!r}) is {state}"
            )
        return index

    def chain(self, shard: int) -> FabricNetwork:
        return self.shards[shard]

    def participant_name(self, shard: int) -> str:
        return f"shard-{shard}"

    def coordinator_shard_for(self, xid: str) -> int:
        """Which shard's chain hosts a cross-shard transaction's
        coordinator records — ring-placed by xid, so coordinator load
        spreads across shards instead of funnelling through one.  Any
        shard's chain can host them, so a dark placement fails over to
        the first reachable shard rather than blocking the protocol."""
        placed = self.ring.index_for(xid)
        if self.shard_reachable(placed):
            return placed
        for index in range(self.shard_count):
            if self.shard_reachable(index):
                return index
        raise TwoPhaseCommitError(
            f"{xid}: no reachable shard can coordinate "
            "(every shard is dark or down)"
        )

    def run(self, until: Any = None):
        return self.env.run(until=until)

    # -- cross-shard layer ---------------------------------------------------

    def coordinator_log(self) -> CoordinatorLog:
        """The 2PC driver's write-ahead decision journal, in shard 0's
        durability runtime (the coordinator is a client-side process;
        any durable filesystem will do — what matters is that it is not
        the coordinator's own memory)."""
        return CoordinatorLog.on(self.shards[0])

    def count_cross_shard(self, event: str) -> None:
        self._cross_shard[event] = self._cross_shard.get(event, 0) + 1

    # -- whole-shard failure -------------------------------------------------

    def shard_reachable(self, index: int) -> bool:
        """Can the router reach this shard right now?"""
        return index not in self.down and index not in self.partitioned

    def partition_shard(self, index: int) -> None:
        """Cut the router's network path to one shard (a *dark* shard).

        The shard itself stays healthy — peers keep their state, the
        orderer keeps its queue — but no new traffic can reach it, so
        routed submissions and 2PC prepares against it fail fast.
        Needs no durable storage: nothing is lost, only unreachable.
        """
        self.partitioned.add(index)

    def heal_shard_partition(self, index: int) -> None:
        """Restore the router's path; the shard resumes where it was."""
        self.partitioned.discard(index)

    def crash_shard(self, index: int) -> None:
        """Power-cut one shard: orderer and every peer lose all memory.

        Requires durability (a crash without a durable store is just
        data loss).  In-flight transactions on the shard are lost with
        it — callers see no commit notice, exactly as with a real
        outage.  The shard refuses traffic until
        :meth:`recover_shard`.
        """
        network = self.shards[index]
        if network.storage is None:
            raise StorageError(
                f"cannot crash shard {network.chain_name!r}: durability "
                "is off, nothing would survive"
            )
        self.down.add(index)
        for peer in network.peers:
            peer.reset_world_state()
        # The orderer's memory dies too; recovery rebuilds it from the
        # orderer WAL.
        network.lose_orderer_memory()

    def recover_shard(self, index: int) -> list[Any]:
        """Restart a crashed shard from its durable stores.

        Ordered block log first (the orderer WAL's intact prefix, torn
        tail truncated), continuation counters reset from it, then
        every peer via snapshot + WAL suffix + catch-up from the
        restored log.  Returns the per-peer
        :class:`~repro.storage.RecoveryReport` list; convergence across
        the shard's peers is asserted before traffic resumes.
        """
        from repro.faults.recovery import recover_peer

        network = self.shards[index]
        if network.storage is None:
            raise StorageError(
                f"cannot recover shard {network.chain_name!r}: no durable store"
            )
        network.restore_orderer_memory(network.storage.restore_block_log())
        reports = []
        for peer in network.peers:
            recover_peer(network, peer)
            reports.append(peer.last_recovery)
        network.verify_convergence()
        self.down.discard(index)
        return reports

    # -- integrity / observability -------------------------------------------

    def verify_convergence(self) -> None:
        """All peers of every live shard hold identical chains/state."""
        for index, network in enumerate(self.shards):
            if index not in self.down:
                network.verify_convergence()

    def fingerprint(self) -> dict[str, dict[str, Any]]:
        """Per-shard (tip hash, height, state root) — the byte-identity
        anchor the single-shard differential test compares against the
        unsharded reference."""
        result: dict[str, dict[str, Any]] = {}
        for network in self.shards:
            peer = network.reference_peer
            result[network.chain_name] = {
                "height": peer.chain.height,
                "tip_hash": peer.chain.tip_hash.hex(),
                "state_root": peer.current_state_root().hex(),
            }
        return result

    def queue_depth(self) -> int:
        """Transactions queued at live shards' orderers, summed — the
        deployment-wide back-pressure signal admission control watches
        (crashed or dark shards hold no admittable queue)."""
        return sum(
            network.queue_depth()
            for index, network in enumerate(self.shards)
            if self.shard_reachable(index)
        )

    def per_shard_stats(self) -> list[dict[str, Any]]:
        """Per-shard balance counters for the bench harness ``extra``."""
        stats = []
        for index, network in enumerate(self.shards):
            outcomes = network.phase_wall.commit_outcomes()["totals"]
            stats.append(
                {
                    "shard": network.chain_name,
                    "committed": outcomes["committed"],
                    "aborted": outcomes["aborted"],
                    "rebased": outcomes["rebased"],
                    "blocks": len(network.block_log),
                    "height": network.reference_peer.chain.height,
                    "orderer_queue_peak": network.orderer_queue_peak,
                    "mvcc_retries": network.mvcc_retries,
                    "down": index in self.down,
                    "partitioned": index in self.partitioned,
                }
            )
        return stats

    def cross_shard_stats(self) -> dict[str, int]:
        return dict(self._cross_shard)

    def harness_extra(self) -> dict[str, Any]:
        """The ``extra`` block benchmark results carry: per-shard
        balance plus cross-shard transaction counts."""
        return {
            "shard_count": self.shard_count,
            "per_shard": self.per_shard_stats(),
            "cross_shard": self.cross_shard_stats(),
        }


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
        self.gateways: list[Gateway] = [
            Gateway(network, network.register_user(user_id, organization))
            for network in sharded.shards
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
