"""The fault injector: attaches a :class:`FaultPlan` to a live network.

Construction installs the injector as ``network.link`` — the hop every
message between sites takes, in place of the reliable
:class:`repro.sim.Link` — and as ``network.faults``, and schedules one
simulation process per timed event, all running one start/undo
lifecycle.  Message faults interpose at the link and storage faults at
the ``Filesystem`` crash guard; the pipeline itself contains no fault
code.  All randomness — message fates, retry jitter — comes from RNGs
seeded by the plan, so a chaos run is as deterministic as a fault-free
one.

``heal()`` ends the experiment: it cancels future scheduled faults,
recovers every crashed node, closes owner-outage windows, and replays
missed blocks everywhere so the converged state can be asserted.
"""

from __future__ import annotations

import random

from repro.errors import FaultInjectionError
from repro.faults import recovery
from repro.faults.plan import FaultEvent, FaultPlan
from repro.sim.faults import (
    NO_FAULT,
    FaultDecision,
    MessageFaultModel,
    TopologyFaultModel,
)


class FaultInjector:
    """Runs one fault plan against one :class:`FabricNetwork`."""

    #: Re-sent and delayed messages overtake each other (see
    #: :attr:`repro.sim.Link.fifo`).
    fifo = False

    #: The window kinds, each with the counter its events bump.
    _WINDOW_STATS = {
        "owner_outage": "owner_outages",
        "byzantine_stale_view": "stale_view_windows",
        "byzantine_corrupt_view": "view_corruptions",
    }

    def __init__(self, network, plan: FaultPlan):
        self.network = network
        self.plan = plan
        self.env = network.env
        #: Jitter/backoff randomness, separate from the message stream so
        #: adding a retry does not shift later message decisions.
        self.rng = random.Random(plan.seed)
        self.messages = MessageFaultModel(plan.messages, seed=plan.seed ^ 0x5EED5)
        self.retry = plan.retry
        self.attached_at = self.env.now
        self._down_peers: set[str] = set()
        #: The ``crash_chain``/``partition_chain`` kind darkening the chain.
        self._chain_outage: str | None = None
        #: Closed-open absolute [start, end) windows per window kind —
        #: the owner is unreachable, or serves auditors stale (cutoff =
        #: window start) or tampered view data — appended when their
        #: events fire (mutable so heal() can close one early).
        self._windows: dict[str, list[list[float]]] = {
            kind: [] for kind in self._WINDOW_STATS
        }
        #: Live partition/degradation state, activated and released by
        #: the topology events' processes.
        self.topology = TopologyFaultModel(seed=plan.seed ^ 0x70B0)
        #: Fires once at heal(): in-flight delay/redeliver waits race
        #: against it so a heal is a clean-network boundary rather than
        #: leaving messages parked on timers beyond the heal.
        self._heal_event = self.env.event()
        self._healed = False
        self._stats: dict[str, int] = {
            "retries": 0,
            "rescued_notices": 0,
            "deduped_txs": 0,
            "redeliveries": 0,
            "peer_crashes": 0,
            "peer_recoveries": 0,
            "orderer_crashes": 0,
            "owner_outages": 0,
            "storage_crashes": 0,
            "byzantine_replicas": 0,
            "stale_view_windows": 0,
            "view_corruptions": 0,
            "partitions": 0,
            "partition_heals": 0,
            "degradations": 0,
        }
        self._validate(plan)
        network.faults = network.link = self
        for event in plan.events:
            self.env.process(self._event_process(event))
        if any(event.kind == "partition" for event in plan.events):
            # Consensus replicas route messages through the topology
            # model under the names "orderer:<id>".  The hook stays
            # None (zero overhead, bit-identical paths) for plans
            # without partitions.
            network.consensus.connectivity = self._orderer_connectivity
        #: recover_after_ms per armed crash point, keyed by peer index;
        #: consulted when the point fires (op order, not sim time).
        self._crash_point_recovery: dict[int, float | None] = {}
        for point in plan.crash_points:
            store = network.storage.node_store(
                network.peers[point.target].peer_id
            )
            store.guard.arm(point.at_op, point.partial_fraction)
            self._crash_point_recovery[point.target] = point.recover_after_ms

    def _validate(self, plan: FaultPlan) -> None:
        network = self.network
        for event in plan.events:
            if event.kind == "crash_peer":
                self._check_crashable_peer("crash_peer", event.target)
            elif event.kind == "crash_chain" and network.storage is None:
                raise FaultInjectionError(
                    "crash_chain needs a storage backend: a chain that "
                    "loses its memory recovers from its durable stores"
                )
            elif event.kind in ("crash_orderer", "crash_leader"):
                cluster = network.consensus
                if not cluster.nodes:
                    raise FaultInjectionError(
                        f"{event.kind} events need a real consensus group "
                        "(NetworkConfig.use_raft or orderer_backend='pbft')"
                    )
                if event.kind == "crash_orderer" and not (
                    0 <= event.target < len(cluster.nodes)
                ):
                    raise FaultInjectionError(
                        f"crash_orderer target {event.target} out of range"
                    )
            elif event.kind in ("byzantine_equivocate", "byzantine_corrupt_block"):
                if network.pbft is None:
                    raise FaultInjectionError(
                        f"{event.kind} events need the pbft orderer backend "
                        "(NetworkConfig.orderer_backend='pbft'): a raft "
                        "replica can crash but cannot lie"
                    )
                if not 0 <= event.target < len(network.pbft.nodes):
                    raise FaultInjectionError(
                        f"{event.kind} target {event.target} out of range "
                        f"for {len(network.pbft.nodes)} pbft replicas"
                    )
        byzantine_targets = {
            event.target
            for event in plan.events
            if event.kind in ("byzantine_equivocate", "byzantine_corrupt_block")
        }
        if network.pbft is not None and len(byzantine_targets) > network.pbft.f:
            raise FaultInjectionError(
                f"plan arms {len(byzantine_targets)} byzantine replicas but "
                f"a cluster of {len(network.pbft.nodes)} tolerates only "
                f"f={network.pbft.f}"
            )
        for point in plan.crash_points:
            if network.storage is None:
                raise FaultInjectionError(
                    "crash_points need a storage backend "
                    "(NetworkConfig.storage_backend or "
                    "REPRO_STORAGE_BACKEND); without durable stores "
                    "there is no WAL to crash mid-write"
                )
            self._check_crashable_peer("crash point", point.target)

    def _check_crashable_peer(self, what: str, target: int | None) -> None:
        network = self.network
        if not 0 <= (target or 0) < len(network.peers):
            raise FaultInjectionError(
                f"{what} target {target} out of range "
                f"for {len(network.peers)} peers"
            )
        if target < network.config.endorsement_policy:
            raise FaultInjectionError(
                f"peer {target} endorses proposals (and peer 0 "
                "serves clients); endorser/reference-peer outages are "
                "not modelled — crash a validating peer instead"
            )

    @property
    def stats(self) -> dict[str, int]:
        """Counters of injected faults and their handling.  Dropped
        duplicates are counted by the network (its pump dedupes with or
        without an injector); the entry here mirrors that count."""
        self._stats["deduped_txs"] = self.network.deduped_txs
        return self._stats

    # -- the link the network sends through ----------------------------------

    def message_decision(
        self, channel: str, kind: str | None = None
    ) -> FaultDecision:
        """Fate of one message, relative to plan-attachment time."""
        if self._healed:
            return NO_FAULT
        return self.messages.decide(
            channel, self.env.now - self.attached_at, kind=kind
        )

    def reachable(self, src: str, dst: str) -> bool:
        """Whether the active partitions let ``src`` talk to ``dst``."""
        if self._healed:
            return True
        return self.topology.reachable(src, dst)

    def _lost(self, src: str, dst: str) -> bool:
        """Partitioned away, else a seeded one-way loss draw."""
        return not self.reachable(src, dst) or self.topology.link_lost(src, dst)

    def send(
        self,
        src: str,
        dst: str,
        base_ms: float,
        channel: str | None = None,
        kind: str | None = None,
        acked: bool = False,
    ):
        """One hop under the plan (the :meth:`repro.sim.Link.send`
        contract): slowed link, then the message rules of ``channel``,
        then partitions and lossy links.

        An ``acked`` delivery that is lost — or lands on a crashed node
        — is re-sent every ``redeliver_after_ms`` until it arrives.
        Rule delays and redelivery waits race against :meth:`heal`, so
        a heal flushes in-flight messages instead of leaving them
        parked on timers past it.
        """
        env = self.env
        yield env.timeout(base_ms * self.topology.link_factor(src, dst))
        while True:
            decision = (
                self.message_decision(channel, kind=kind) if channel else NO_FAULT
            )
            if decision.delay_ms:
                yield env.any_of([env.timeout(decision.delay_ms), self._heal_event])
            if not (
                decision.drop
                or (acked and not self.up(dst))
                or self._lost(src, dst)
            ):
                return 2 if decision.duplicate else 1
            if not acked:
                return 0
            self.stats["redeliveries"] += 1
            yield env.any_of(
                [env.timeout(self.plan.redeliver_after_ms), self._heal_event]
            )

    def service_factor(self, node: str) -> float:
        """Service-time multiplier for a gray-slow node (1.0 = healthy)."""
        return self.topology.node_factor(node)

    def up(self, node: str) -> bool:
        """Whether ``node`` (``"peer:<index>"``, or ``"chain"``: the whole
        chain, to a deployment's router) is running."""
        kind, _, index = node.partition(":")
        if kind == "peer":
            return self.network.peers[int(index)].peer_id not in self._down_peers
        return kind != "chain" or self._chain_outage is None

    def _orderer_connectivity(self, a: int, b: int) -> bool:
        """Pair hook for consensus clusters (node ids → topology names)."""
        return self.reachable(f"orderer:{a}", f"orderer:{b}")

    def _open(self, kind: str) -> list[list[float]]:
        """The ``kind`` windows open right now."""
        now = self.env.now
        return [
            window for window in self._windows[kind] if window[0] <= now < window[1]
        ]

    def owner_available(self) -> bool:
        return not self._open("owner_outage")

    def owner_unavailable_for(self) -> float:
        """Milliseconds until the owner is back (0 when available)."""
        now = self.env.now
        return max((end - now for _, end in self._open("owner_outage")), default=0.0)

    def stale_view_cutoff(self) -> float | None:
        """Staleness horizon the Byzantine owner serves right now.

        Inside a ``byzantine_stale_view`` window the owner answers
        queries as of the window's start: entries inserted after the
        cutoff are silently omitted.  ``None`` when the owner is
        currently honest.
        """
        open_now = self._open("byzantine_stale_view")
        return min((start for start, _ in open_now), default=None)

    def corrupts_views(self) -> bool:
        """Whether the owner currently serves tampered view payloads."""
        return bool(self._open("byzantine_corrupt_view"))

    # -- timed events ---------------------------------------------------------

    def _event_process(self, event: FaultEvent):
        """The one timed-fault lifecycle: start at ``at_ms``, undo after
        ``for_ms`` unless :meth:`heal` ran first."""
        env = self.env
        yield env.timeout(max(event.at_ms, 0.0))
        if self._healed:
            return
        undo = self._start(event)
        if undo is None or event.for_ms is None:
            return  # a window that records its own end, or held until heal()
        yield env.timeout(event.for_ms)
        if not self._healed:
            undo()

    def _start(self, event: FaultEvent):
        """Inject ``event`` now; return what ends it, or ``None`` for the
        window kinds, whose recorded [start, end) already ends them."""
        kind = event.kind
        if kind in self._windows:
            self.stats[self._WINDOW_STATS[kind]] += 1
            now = self.env.now
            self._windows[kind].append([now, now + event.for_ms])
            return None
        if kind in ("byzantine_equivocate", "byzantine_corrupt_block"):
            pbft = self.network.pbft
            mode = "equivocate" if kind == "byzantine_equivocate" else "corrupt"
            pbft.set_byzantine(event.target, mode)
            self.stats["byzantine_replicas"] += 1
            return lambda: pbft.clear_byzantine(event.target)
        if kind in ("crash_chain", "partition_chain"):
            if kind == "crash_chain":
                self._crash_chain()
            self._chain_outage = kind
            return self._end_chain_outage
        if kind == "crash_peer":
            self._down_peers.add(self.network.peers[event.target].peer_id)
            self.stats["peer_crashes"] += 1
            return lambda: self.recover_peer(event.target)
        if kind in ("crash_orderer", "crash_leader"):
            cluster = self.network.consensus
            if kind == "crash_leader":
                node_id = cluster.leader_id or 0  # between leaders: node 0
            else:
                node_id = event.target
            cluster.crash(node_id)
            self.stats["orderer_crashes"] += 1
            return lambda: cluster.recover(node_id)
        self.topology.activate(event)
        if kind == "partition":
            self.stats["partitions"] += 1
            return lambda: self._release_partition(event)
        self.stats["degradations"] += 1
        return lambda: self.topology.release(event)

    def _release_partition(self, event: FaultEvent) -> None:
        self.topology.release(event)
        self.stats["partition_heals"] += 1

    # -- storage crash points ---------------------------------------------------

    def node_died(self, node: str, crash: BaseException) -> None:
        """A crash point fired inside peer ``node``'s durable commit.

        Called by the network's commit path when a
        :class:`~repro.errors.SimulatedCrashError` propagates out of
        ``validate_and_commit``: the peer died mid-durability-op.  It
        is marked down (deliveries queue for redelivery like any other
        crash) and, when its crash point carried ``recover_after_ms``,
        a restart — snapshot + WAL-suffix recovery plus catch-up — is
        scheduled that far in the simulated future.
        """
        index = int(node.partition(":")[2])
        self._down_peers.add(self.network.peers[index].peer_id)
        self.stats["storage_crashes"] += 1
        recover_after = self._crash_point_recovery.get(index)
        if recover_after is not None:
            self.env.process(self._storage_recovery(index, recover_after))

    def _storage_recovery(self, index: int, after_ms: float):
        yield self.env.timeout(after_ms)
        peer = self.network.peers[index]
        if not self._healed and peer.peer_id in self._down_peers:
            self.recover_peer(index)

    # -- whole-chain outage ------------------------------------------------------

    def _crash_chain(self) -> None:
        """Every peer and the ordering service lose their memory, and
        with it whatever was accepted but not yet committed."""
        network = self.network
        for peer in network.peers:
            peer.reset_world_state()
        network._cutter.clear()
        network._inflight_tids.clear()
        network._commit_events.clear()
        self._restart_orderer([])

    def _restart_orderer(self, blocks: list) -> None:
        """Continue the chain after ``blocks``; exactly their transactions
        count as accepted, so ``queue_depth()`` reads 0 once caught up."""
        network = self.network
        network.block_log[:] = blocks
        network.ordering.resume_after(blocks)
        network._accepted_txs = sum(len(block.transactions) for block in blocks)

    def _end_chain_outage(self) -> None:
        """Make the chain reachable.  A crashed one first restarts from its
        durable stores: the orderer's block log from its WAL, then every
        peer; peers that come back diverged raise, leaving it down."""
        if self._chain_outage == "crash_chain":
            network = self.network
            self._restart_orderer(network.storage.restore_block_log())
            for index in range(len(network.peers)):
                self.recover_peer(index)
            network.verify_convergence()
        self._chain_outage = None

    # -- recovery --------------------------------------------------------------

    def recover_peer(self, index: int) -> None:
        """Bring a crashed peer back: replay its chain, catch up the rest."""
        peer = self.network.peers[index]
        self._down_peers.discard(peer.peer_id)
        self.stats["peer_recoveries"] += 1
        with self.network.phase_wall.track("recover"):
            recovery.recover_peer(self.network, peer)

    def heal(self) -> None:
        """End the experiment: recover everything, stop further faults.

        After ``heal()`` the network must satisfy every invariant a
        fault-free run does — replicas converge, each tid is committed
        exactly once — which is what the chaos differential suite
        asserts.
        """
        self._healed = True
        now = self.env.now
        for windows in self._windows.values():
            for window in windows:
                window[1] = min(window[1], now)
        self.topology.clear()
        # Wake every in-flight delay/redeliver wait parked on a timer
        # beyond the heal: post-heal decisions are NO_FAULT, so the
        # woken messages complete over a clean network immediately.
        if not self._heal_event.triggered:
            self._heal_event.succeed()
        if self.network.storage is not None:
            # Disarm un-fired crash points so the recovery commits
            # below cannot trip them.
            for peer in self.network.peers:
                self.network.storage.node_store(peer.peer_id).guard.disarm()
        self._end_chain_outage()
        for index, peer in enumerate(self.network.peers):
            if peer.peer_id in self._down_peers:
                self.recover_peer(index)
        # Recover crashed consensus replicas; pbft also disarms
        # byzantine modes and repairs tampered copies (evidence and
        # convictions are kept).
        self.network.consensus.heal()
        for peer in self.network.peers:
            recovery.catch_up(self.network, peer)
        # The catch-up above commits blocks through the recovery path,
        # which does not notify clients.  An in-flight submission whose
        # block just landed that way would hang until its retry timeout
        # rescues it from the ledger — rescue it now instead, so heal()
        # is a clean boundary for clients too.
        for tid in self.network.awaited_tids():
            self.network.rescue(tid)

    def summary(self) -> dict:
        """Counters for reports: injected faults and their handling."""
        return {
            **self.stats,
            "messages_dropped": dict(self.messages.dropped),
            "messages_duplicated": dict(self.messages.duplicated),
            "messages_delayed": dict(self.messages.delayed),
            "messages_blocked_by_partition": self.topology.blocked,
            "messages_lost_on_links": self.topology.link_drops,
        }
