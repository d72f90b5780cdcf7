"""The simulated Fabric network: wiring, timing, and the client gateway.

One :class:`FabricNetwork` is a channel: a set of peers (each with its
own ledger copy, state database and chaincodes), one ordering service,
and the latency/service-time model from :class:`NetworkConfig`.
Several networks can share a single simulation environment — that is
how the cross-chain 2PC baseline runs a main chain plus one blockchain
per view (paper §6.1).

Functional behaviour (chaincode effects, validation, crypto) executes
for real; only *durations* are simulated.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any

from repro.errors import (
    ChaincodeError,
    FaultInjectionError,
    LedgerError,
    SimulatedCrashError,
)
from repro.fabric import occ
from repro.fabric.chaincode import Chaincode, ChaincodeRegistry, TxContext
from repro.fabric.config import NetworkConfig, RetryPolicy, resolve_backends
from repro.fabric.endorser import Proposal, assemble_transaction
from repro.fabric.identity import MembershipServiceProvider, User
from repro.fabric.orderer import BlockCutter, OrderingService, build_consensus
from repro.fabric.peer import Peer, ValidationCode
from repro.fabric.validation import BlockValidationMemo
from repro.ledger.transaction import Transaction, fresh_tid
from repro.sim import Counter, Environment, Event, Link, Resource, Store, TimeSeries
from repro.storage import StorageRuntime

#: Base backoff before the first client-side MVCC retry (doubles per
#: attempt, capped at 8x, plus seeded jitter of half the base), and the
#: seed of that jitter.
MVCC_RETRY_BACKOFF_MS = 25.0
MVCC_RETRY_SEED = 7


@dataclass
class CommitNotice:
    """What a submitter learns when its transaction commits."""

    tid: str
    code: ValidationCode
    block_number: int
    response: Any = None


class PhaseWallClock:
    """Wall-clock seconds spent in each pipeline phase of one network.

    Simulated time measures the *modelled* system; this measures where
    the reproduction itself burns host CPU (endorse / order / commit /
    state-root / query), so a perf PR can see which layer its change
    moved.  Tracking costs two ``perf_counter`` calls per operation —
    noise next to the work being timed.  Only the simulation's own
    thread ever enters :meth:`track`.
    """

    def __init__(self) -> None:
        #: Per-phase totals in seconds.
        self.seconds: dict[str, float] = {}
        #: Per-block commit outcome counters (committed / aborted /
        #: rebased transactions), recorded once per block at the
        #: reference peer — the contention view the per-phase times
        #: cannot show: an abort burns the same endorse/order/commit
        #: wall-clock as a commit but moves no business state.
        self._block_outcomes: dict[int, dict[str, int]] = {}

    @contextmanager
    def track(self, phase: str):
        started = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - started
            self.seconds[phase] = self.seconds.get(phase, 0.0) + elapsed

    def summary(self) -> dict[str, float]:
        """Per-phase totals in seconds, rounded, sorted by phase name."""
        return {
            phase: round(total, 4)
            for phase, total in sorted(self.seconds.items())
        }

    def record_block_outcome(
        self, block_number: int, committed: int, aborted: int, rebased: int
    ) -> None:
        """Record one block's commit/abort/rebase counts (reference peer)."""
        self._block_outcomes[block_number] = {
            "committed": committed,
            "aborted": aborted,
            "rebased": rebased,
        }

    def commit_outcomes(self) -> dict[str, Any]:
        """Totals and per-block commit/abort/rebase counters.

        ``rebased`` counts transactions the occ commit backend
        re-executed at validation time; they are included in
        ``committed``.  ``abort_rate`` is aborted over all transactions
        (0.0 on an empty run).
        """
        per_block = {
            number: dict(counts)
            for number, counts in sorted(self._block_outcomes.items())
        }
        totals = {"committed": 0, "aborted": 0, "rebased": 0}
        for counts in per_block.values():
            for key in totals:
                totals[key] += counts[key]
        total_txs = totals["committed"] + totals["aborted"]
        return {
            "totals": totals,
            "abort_rate": totals["aborted"] / total_txs if total_txs else 0.0,
            "rebase_rate": totals["rebased"] / total_txs if total_txs else 0.0,
            "per_block": per_block,
        }

    def merge_into(self, totals: dict[str, float]) -> None:
        """Accumulate this network's phase times into ``totals``."""
        for phase, total in self.seconds.items():
            totals[phase] = totals.get(phase, 0.0) + total


@dataclass
class NetworkMetrics:
    """Counters and series one network accumulates during a run."""

    committed_requests: Counter
    latencies_ms: TimeSeries
    onchain_txs: Counter
    invalid_txs: Counter

    @classmethod
    def fresh(cls) -> "NetworkMetrics":
        return cls(
            committed_requests=Counter("committed"),
            latencies_ms=TimeSeries("latency_ms"),
            onchain_txs=Counter("onchain"),
            invalid_txs=Counter("invalid"),
        )


class FabricNetwork:
    """A simulated Fabric channel."""

    def __init__(
        self,
        env: Environment,
        config: NetworkConfig | None = None,
        msp: MembershipServiceProvider | None = None,
        chain_name: str = "main",
    ):
        self.env = env
        self.config = config or NetworkConfig()
        self.msp = msp or MembershipServiceProvider(key_bits=self.config.key_bits)
        self.chain_name = chain_name
        self.registry = ChaincodeRegistry()
        self.metrics = NetworkMetrics.fresh()
        self.phase_wall = PhaseWallClock()
        # Every backend selector (config field, else ``REPRO_*``
        # variable, else default), resolved here and nowhere else.
        backends = resolve_backends(self.config)
        #: Commit-time conflict policy (see repro.fabric.occ): abort on
        #: MVCC conflict (reference) or rebase at validation time (occ).
        self.commit_backend = occ.COMMIT_BACKENDS[backends.commit]
        #: tid -> proposal context for validation-time re-execution,
        #: shared by reference across every peer (and recovery shadow
        #: replicas).  Populated at submission; only filled when the
        #: occ backend is on.
        self.resim: dict[str, occ.ResimRecord] = {}

        self.peers: list[Peer] = []
        self._peer_cpus: list[Resource] = []
        self._endorse_cpus: list[Resource] = []
        for i in range(self.config.peer_count):
            peer_id = f"{chain_name}-peer{i}"
            identity = self.msp.register(peer_id, organization=f"org{i + 1}")
            peer = Peer(
                peer_id=peer_id,
                identity=identity,
                registry=self.registry,
                chain_name=chain_name,
                real_signatures=self.config.real_signatures,
                commit_backend=self.commit_backend,
            )
            peer.resim = self.resim
            self.peers.append(peer)
            self._peer_cpus.append(Resource(env, capacity=1))
            self._endorse_cpus.append(Resource(env, capacity=4))

        # Reading a public key draws the peer's keypair, which only a
        # signed channel ever uses.
        self._peer_keys = (
            {p.peer_id: p.identity.public_key for p in self.peers}
            if self.config.real_signatures
            else {}
        )
        self._peer_secrets = {p.peer_id: p.mac_secret for p in self.peers}

        #: Durability runtime (:class:`repro.storage.StorageRuntime`),
        #: or ``None`` when the storage backend is off — peers are then
        #: purely in-memory, exactly the pre-durability behaviour.
        #: Built before the fault injector so crash-point plans can
        #: validate against (and arm) the per-peer stores.
        self.storage = None
        if backends.storage is not None:
            self.storage = StorageRuntime.from_config(
                self.config, chain_name, backends.storage
            )
            for peer in self.peers:
                self.storage.attach_peer(peer)

        self.ordering = OrderingService(self.config)
        self._cutter = BlockCutter(self.config)
        #: The orderers' consensus group, always present: cut batches
        #: are final once ``consensus.replicate(tids)`` fires.  Fixed
        #: delay, real Raft or PBFT (see :func:`build_consensus`);
        #: :attr:`raft`, :attr:`pbft` and :attr:`block_certs` are
        #: read-only views of it.
        self.consensus = build_consensus(
            env, self.config, backends.orderer, chain_name, self.storage
        )
        #: The hop every message between sites takes.  Reliable unless a
        #: :class:`repro.faults.FaultInjector` installs itself here.
        self.link = Link(env)
        self._order_inbox: Store = Store(env)
        self._arrival: Event = env.event()
        #: When a partial block is cut: "timer" (Fabric's BatchTimeout,
        #: every paper figure) until :meth:`bind_serving_target` moves
        #: it to "group".  Not a config field: who feeds the channel
        #: decides it.
        self.cut_policy = "timer"
        #: What the group cutter waits on while a block is outstanding;
        #: fired by the next delivery to finish at any peer.  ``None``
        #: whenever nobody waits — always, under "timer".
        self._commit_progress: Event | None = None
        self._commit_events: dict[str, Event] = {}
        self._responses: dict[str, Any] = {}
        #: Post-commit canonical state roots per block (all peers agree);
        #: populated only when track_state_roots is enabled.
        self.state_roots: dict[int, bytes] = {}
        self.track_state_roots = False
        #: Block-event listeners, called as ``listener(block, result)``
        #: after the reference peer commits each block (Fabric's event
        #: service).  Listener errors propagate — a broken listener is a
        #: programming error, not something to swallow.
        self._block_listeners: list = []
        #: View managers over this channel; each registers itself.
        self.view_managers: list = []
        #: The attached :class:`repro.faults.FaultInjector`, or ``None``.
        #: Only the client retry loop reads it; message faults reach
        #: the pipeline through :attr:`link`.
        self.faults = None
        #: The ordered block log (index = block number): the recovery
        #: source for peers that missed deliveries while crashed.
        self.block_log: list = []
        #: Transaction ids accepted for ordering and not yet committed
        #: at the reference peer.  With that peer's validation codes it
        #: answers "was this tid accepted before?", so a resubmitted or
        #: duplicated copy is dropped at the pump without a second
        #: run-long tid container.  (Tids of a block the recovery path
        #: commits there stay behind; they are "already accepted" too.)
        self._inflight_tids: set[str] = set()
        #: Copies dropped at the pump as already accepted.
        self.deduped_txs = 0
        #: Transactions accepted for ordering (post-dedup).  Together
        #: with the reference peer's committed-tx count this yields the
        #: live outstanding-work gauge :meth:`queue_depth` — counting
        #: the cutter/consensus/delivery stages directly would tally a
        #: redelivered block's transactions once per stage they
        #: transit.
        self._accepted_txs = 0
        #: High-water mark of transactions outstanding at the orderer
        #: (accepted but not yet committed at the reference peer) — the
        #: back-pressure gauge the sharding bench reports per shard: a
        #: single channel's queue grows with total load, a sharded
        #: deployment's per-channel queues grow with load/N.
        self.orderer_queue_peak = 0

        #: Client-side MVCC retry (opt-in; config.mvcc_retry_attempts).
        #: Reuses the timeout retry's RetryPolicy backoff curve so the
        #: two retry paths share one bounded, seeded shape.
        self._mvcc_retry = None
        self._mvcc_rng = None
        self.mvcc_retries = 0
        if self.config.mvcc_retry_attempts > 0:
            backoff = MVCC_RETRY_BACKOFF_MS
            self._mvcc_retry = RetryPolicy(
                max_attempts=self.config.mvcc_retry_attempts + 1,
                timeout_ms=self.config.batch_timeout_ms + 1.0,
                backoff_ms=backoff,
                backoff_factor=2.0,
                max_backoff_ms=backoff * 8,
                jitter_ms=backoff * 0.5,
            )
            self._mvcc_rng = random.Random(MVCC_RETRY_SEED)

        env.process(self._pump())
        env.process(self._cut_loop())

        if backends.fault_plan is not None:
            from repro.faults import FaultInjector, FaultPlan

            FaultInjector(self, FaultPlan.from_source(backends.fault_plan))

    # -- administration ------------------------------------------------------

    def install_chaincode(self, chaincode: Chaincode) -> None:
        """Install a contract on every peer of the channel."""
        self.registry.install(chaincode)

    def register_user(self, user_id: str, organization: str = "org1") -> User:
        """Register a client identity with the channel's MSP."""
        return self.msp.register(user_id, organization)

    @property
    def reference_peer(self) -> Peer:
        """The peer used for client reads and commit notifications."""
        return self.peers[0]

    @property
    def raft(self):
        """The real Raft group among the orderers, or ``None``."""
        return self.consensus if self.consensus.kind == "raft" else None

    @property
    def pbft(self):
        """The PBFT group among the orderers, or ``None``."""
        return self.consensus if self.consensus.kind == "pbft" else None

    @property
    def block_certs(self) -> list:
        """Quorum certificates per block (index = block number): the
        certificates of the PBFT group's certified log — the forensic
        trail auditors verify replica signatures against.  Empty on the
        other orderers, whose entries carry none."""
        consensus = self.consensus
        if consensus.kind != "pbft":
            return []
        return [entry.cert for entry in consensus.committed]

    # -- timing helpers ------------------------------------------------------

    def _endorse_service_ms(self, payload_bytes: int) -> float:
        cfg = self.config
        return cfg.endorse_base_ms + cfg.payload_delay_ms(
            payload_bytes, cfg.endorse_per_kib_ms
        )

    def _validate_service_ms(self, tx: Transaction) -> float:
        cfg = self.config
        cost = cfg.validate_tx_ms + cfg.payload_delay_ms(
            tx.size_bytes, cfg.validate_per_kib_ms
        )
        view_entries = tx.nonsecret.get("public", {}).get("views")
        if view_entries:
            cost += cfg.view_entry_ms * len(view_entries)
        if tx.nonsecret.get("contract_write"):
            cost *= cfg.contract_write_factor
        return cost

    # -- submission ------------------------------------------------------------

    def submit(self, proposal: Proposal) -> Event:
        """Run the full endorse → order → commit flow for ``proposal``.

        Returns the process completion event; its value is a
        :class:`CommitNotice`.  Endorsement or chaincode failures fail
        the event with the underlying exception.  With a fault injector
        and retry policy attached, submissions that produce no commit
        notice in time are resubmitted with seeded backoff.  With
        ``config.mvcc_retry_attempts`` set, an ``MVCC_CONFLICT`` notice
        additionally triggers a re-endorse under a fresh transaction id
        after a bounded, seeded backoff.
        """
        if self._mvcc_retry is not None:
            return self.env.process(self._submit_with_mvcc_retry(proposal))
        return self._submit_once(proposal)

    def _submit_once(self, proposal: Proposal) -> Event:
        """One submission attempt (fault-layer timeout retry included)."""
        if self.faults is not None and self.faults.retry is not None:
            return self.env.process(self._submit_with_retry(proposal))
        return self.env.process(self._submit_process(proposal))

    def _submit_with_mvcc_retry(self, proposal: Proposal):
        """Re-endorse MVCC-conflicted submissions with seeded backoff.

        Unlike the fault layer's timeout retry (same tid — the original
        may still be in flight), an MVCC retry re-endorses a *fresh*
        transaction: the conflicted one is already on chain, aborted,
        so reusing its tid would trip the orderer's dedup and the
        exactly-once invariant.  The backoff spreads retries out so a
        hot key's losers do not all re-collide in the very next block
        (livelock under skew); the jitter draws from a per-network
        seeded RNG, keeping runs reproducible.
        """
        policy = self._mvcc_retry
        for attempt in range(1, policy.max_attempts + 1):
            notice = yield self._submit_once(proposal)
            if (
                notice.code is not ValidationCode.MVCC_CONFLICT
                or attempt == policy.max_attempts
            ):
                return notice
            self.mvcc_retries += 1
            yield self.env.timeout(policy.backoff_for(attempt, self._mvcc_rng))
            proposal = replace(proposal, tid=fresh_tid())

    def _committed_notice(self, tid: str) -> CommitNotice | None:
        """Synthesise the notice for a tid the reference peer committed.

        The rescue path for a notification lost to fault timing: an
        earlier attempt's commit event can be consumed (or overwritten
        by a resubmission) while the transaction itself lands on chain.
        The ledger is the source of truth, so the notice is rebuilt
        from the reference peer's validation code and block index.
        """
        peer = self.reference_peer
        code = peer.validation_codes.get(tid)
        if code is None:
            return None
        block_number, _position = peer.chain.locate(tid)
        return CommitNotice(tid=tid, code=code, block_number=block_number)

    def _submit_with_retry(self, proposal: Proposal):
        """Submission with timeout + capped, seeded exponential backoff.

        Chaincode and endorsement errors propagate immediately —
        retrying a logic error cannot help.  Only a missing commit
        notice (lost or delayed messages, crashed nodes) triggers a
        resubmission, which reuses the proposal's transaction id so a
        slow-but-alive original is deduplicated at the orderer rather
        than committed twice.

        When the policy carries a ``deadline_ms`` the whole loop lives
        inside that budget: each attempt's timeout is clipped to the
        time remaining and no backoff is slept that would carry the
        next attempt past the deadline — a request never retries past
        its SLO.
        """
        env = self.env
        faults = self.faults
        policy = faults.retry
        tid = proposal.tid
        started = env.now
        deadline = (
            math.inf if policy.deadline_ms is None else started + policy.deadline_ms
        )
        for attempt in range(1, policy.max_attempts + 1):
            remaining = deadline - env.now
            if remaining <= 0:
                break
            inner = env.process(self._submit_process(proposal, started=started))
            yield env.any_of(
                [inner, env.timeout(min(policy.timeout_ms, remaining))]
            )
            if inner.triggered:
                return inner.value
            notice = self._committed_notice(tid)
            if notice is not None:
                # Committed, but the notice went to an abandoned
                # attempt: rebuild it from the ledger.
                self._commit_events.pop(tid, None)
                faults.stats["rescued_notices"] += 1
                return self._hand_over(notice, started)
            faults.stats["retries"] += 1
            backoff = policy.backoff_for(attempt, faults.rng)
            if env.now + backoff >= deadline:
                break
            yield env.timeout(backoff)
        else:
            raise FaultInjectionError(
                f"transaction {tid!r} produced no commit notice after "
                f"{policy.max_attempts} attempts"
            )
        raise FaultInjectionError(
            f"transaction {tid!r} produced no commit notice within its "
            f"{policy.deadline_ms}ms deadline budget"
        )

    def _hand_over(self, notice: CommitNotice, started: float) -> CommitNotice:
        """Complete a notice for its submitter and record the request."""
        notice.response = self._responses.pop(notice.tid, None)
        self.metrics.committed_requests.increment()
        self.metrics.latencies_ms.record(self.env.now, self.env.now - started)
        return notice

    def _submit_process(self, proposal: Proposal, started: float | None = None):
        env = self.env
        latency = self.config.latency
        # Retried submissions pass the first attempt's start time so the
        # recorded latency is the client-perceived end-to-end one.
        started = env.now if started is None else started

        # --- endorsement phase ---
        yield env.timeout(latency.client_to_peer)
        endorsing = self.peers[: self.config.endorsement_policy]
        payload_size = len(proposal.concealed) + 256  # args + headers estimate
        # Every endorser is asked and the replies travel back before the
        # client learns anything, so a failing endorsement still pays
        # every CPU slot and the reply hop; the first failure in
        # endorsing-peer order is then raised.
        responses = []
        failure = None
        for peer, cpu in zip(endorsing, self._endorse_cpus):
            request = cpu.request()
            yield request
            try:
                yield env.timeout(self._endorse_service_ms(payload_size))
                try:
                    with self.phase_wall.track("endorse"):
                        responses.append(peer.endorse(proposal))
                except ChaincodeError as exc:
                    if failure is None:
                        failure = exc
            finally:
                cpu.release(request)
        yield env.timeout(latency.client_to_peer)
        if failure is not None:
            raise failure

        tx = assemble_transaction(proposal, responses)
        self._responses[tx.tid] = responses[0].response
        if self.commit_backend.rebase_conflicts:
            # Committed transactions carry rwsets, not chaincode args —
            # record the proposal context so validation can re-execute
            # this transaction if it conflicts (shared with all peers).
            self.resim[tx.tid] = occ.ResimRecord(
                chaincode=proposal.chaincode,
                fn=proposal.fn,
                args=proposal.args,
                creator=proposal.creator,
                response=responses[0].response,
            )

        # --- ordering phase ---
        commit_event = env.event()
        self._commit_events[tx.tid] = commit_event
        # A lost broadcast (0 copies) never reaches the orderer: this
        # attempt then waits for a notice that arrives another way (a
        # retry, or a duplicate).  An extra copy is dropped at the pump.
        copies = yield from self.link.send(
            "client",
            "orderer",
            latency.client_to_orderer,
            "client_to_orderer",
            proposal.kind,
        )
        for _ in range(copies):
            yield self._order_inbox.put(tx)

        return self._hand_over((yield commit_event), started)

    def submit_sync(self, proposal: Proposal) -> CommitNotice:
        """Submit and drive the simulation until the commit completes.

        Convenience for examples/tests where wall-clock ordering of
        operations matters more than concurrency.
        """
        event = self.submit(proposal)
        return self.env.run(until=event)

    def invoke_sync(
        self,
        user: User,
        chaincode: str,
        fn: str,
        args: dict[str, Any] | None = None,
        public: dict[str, Any] | None = None,
        concealed: bytes = b"",
        salt: bytes = b"",
        contract_write: bool = False,
        kind: str = "invoke",
    ) -> CommitNotice:
        """One-call synchronous chaincode invocation."""
        proposal = Proposal(
            chaincode=chaincode,
            fn=fn,
            args=args or {},
            public=public or {},
            concealed=concealed,
            salt=salt,
            creator=user.user_id,
            contract_write=contract_write,
            kind=kind,
        )
        return self.submit_sync(proposal)

    # -- queries (no ordering; local read at the reference peer) -------------

    def query(
        self,
        chaincode: str,
        fn: str,
        args: dict[str, Any] | None = None,
        creator: str = "",
    ) -> Any:
        """Execute a read-only chaincode function against committed state.

        Write sets produced by the function are discarded — Fabric
        queries never reach the orderer.
        """
        peer = self.reference_peer
        contract = self.registry.get(chaincode)
        ctx = TxContext(
            chaincode=chaincode,
            statedb=peer.statedb,
            tid="query",
            creator=creator,
        )
        with self.phase_wall.track("query"):
            return contract.invoke(ctx, fn, args or {})

    def get_transaction(self, tid: str) -> Transaction:
        """Fetch a committed transaction from the reference peer's ledger."""
        return self.reference_peer.chain.get_transaction(tid)

    def queue_depth(self) -> int:
        """Transactions accepted for ordering but not yet committed at
        the reference peer — the live back-pressure gauge whose
        high-water mark :attr:`orderer_queue_peak` records.  Admission
        control and the serving metrics read this instead of reaching
        into the pipeline.

        Counted as *accepted minus committed* rather than by summing
        the cutter/consensus/delivery stage queues: both ends of that
        subtraction are idempotent (dedup at accept, height guard at
        commit), so a block redelivered during catch-up cannot inflate
        the gauge by transiting the delivery stage twice — the
        double-count that used to trip the serving tier's shed
        watermark early.
        """
        return max(
            0, self._accepted_txs - len(self.reference_peer.validation_codes)
        )

    def blocks_outstanding(self) -> int:
        """Blocks ordered but not yet committed by *any* peer — what the
        group cutter keeps at one.  Counted against the furthest peer,
        not the reference peer, so a crashed peer 0 cannot stall
        ordering; like :meth:`queue_depth` it reads 0 once the peers
        have caught up with a lost or restored block log."""
        return max(
            0, len(self.block_log) - max(p.chain.height for p in self.peers)
        )

    def bind_serving_target(self) -> None:
        """An open-loop serving target now feeds this channel: cut by
        group commit from the next batch on.  Bind the target before
        the channel sees traffic — blocks cut earlier (a view's set-up
        grants, say) were cut on the timer."""
        self.cut_policy = "group"

    def lose_orderer_memory(self) -> None:
        """Power-cut the ordering service: the pending batch, the ordered
        block log, the chain-continuation counters and every client
        waiting on a commit notice are gone, and with them whatever was
        accepted but not yet committed."""
        self._cutter.clear()
        self._inflight_tids.clear()
        self._commit_events.clear()
        self._responses.clear()
        self.restore_orderer_memory([])

    def restore_orderer_memory(self, blocks: list) -> None:
        """Restart the ordering service from a recovered block log: the
        next block continues ``blocks``, and exactly their transactions
        count as accepted — so :meth:`queue_depth` reads 0 once the
        reference peer has caught up with the log."""
        self.block_log[:] = blocks
        self.ordering.resume_after(blocks)
        self._accepted_txs = sum(len(block.transactions) for block in blocks)

    # -- ordering service processes ---------------------------------------------

    def _pump(self):
        """Move submitted transactions into the block cutter."""
        while True:
            tx = yield self._order_inbox.get()
            # A retried proposal keeps its tid and a broadcast can be
            # duplicated in flight: ordering the same tid twice would
            # commit it twice, so every copy after the first is dropped.
            if (
                tx.tid in self._inflight_tids
                or tx.tid in self.reference_peer.validation_codes
            ):
                self.deduped_txs += 1
                continue
            self._inflight_tids.add(tx.tid)
            self._accepted_txs += 1
            self._cutter.add(tx)
            depth = self.queue_depth()
            if depth > self.orderer_queue_peak:
                self.orderer_queue_peak = depth
            arrival = self._arrival
            self._arrival = self.env.event()
            arrival.succeed()

    def _await_timer_cut(self):
        """Why to cut the pending batch under "timer": a count/bytes cap,
        or the batch timeout after its first transaction."""
        env = self.env
        deadline = env.now + self.config.batch_timeout_ms
        while True:
            reason = self._cutter.should_cut()
            if reason:
                return reason
            if env.now >= deadline:
                return "timeout"
            yield env.any_of([self._arrival, env.timeout(deadline - env.now)])

    def _await_group_cut(self):
        """Why to cut the pending batch under "group": a count/bytes cap,
        or no block outstanding — never a timer, so a block holds what
        arrived during one commit cycle and the committer is never
        handed blocks faster than it drains them."""
        while True:
            reason = self._cutter.should_cut()
            if reason:
                return reason
            if self.blocks_outstanding() == 0:
                return "idle"
            if self._commit_progress is None:
                self._commit_progress = self.env.event()
            yield self.env.any_of([self._arrival, self._commit_progress])

    def _cut_loop(self):
        """Cut blocks on the count/bytes thresholds, and partial ones by
        :attr:`cut_policy`."""
        env = self.env
        while True:
            while not self._cutter.has_pending:
                yield self._arrival
            if self.cut_policy == "group":
                reason = yield from self._await_group_cut()
            else:
                reason = yield from self._await_timer_cut()
            while self._cutter.has_pending:
                with self.phase_wall.track("order"):
                    decision = self._cutter.cut(reason)
                # The batch is final once the orderers' consensus group
                # has replicated its digest.
                yield self.consensus.replicate(
                    [tx.tid for tx in decision.transactions]
                )
                with self.phase_wall.track("order"):
                    block = self.ordering.build_block(decision, timestamp=env.now)
                self.block_log.append(block)
                # One memo per block, shared by every peer's delivery:
                # the pure per-transaction checks (endorsement policy,
                # rwset parse) are peer-independent, so the first peer
                # to validate fills it and the rest reuse it.
                memo = BlockValidationMemo()
                if self.storage is not None:
                    # The cutter's encodings become the WAL form of the
                    # block once, for the orderer and every replica.
                    memo.wal_txs = [
                        raw.decode("utf-8") for raw in decision.encoded
                    ]
                    self.storage.log_ordered_block(block, memo.wal_txs)
                self.metrics.onchain_txs.increment(len(block.transactions))
                for index, peer in enumerate(self.peers):
                    env.process(self._deliver(index, peer, block, memo))
                if self._cutter.should_cut() is None:
                    break
                reason = self._cutter.should_cut()

    def _deliver(self, index: int, peer: Peer, block, memo=None):
        """Ship one block to one peer; validate, commit, notify clients.

        The delivery is acknowledged — Fabric's deliver service re-sends
        a block a peer has not confirmed — so it always lands, though on
        a link that re-sends not necessarily in order: a peer that
        missed earlier blocks replays them from the orderer's block log
        before committing this one, preserving chain order.
        """
        yield from self.link.send(
            "orderer",
            f"peer:{index}",
            self.config.latency.orderer_to_peer,
            "orderer_to_peer",
            "block",
            acked=True,
        )
        if not self.link.fifo:
            while peer.chain.height < block.number:
                yield from self._commit_and_notify(
                    index, peer, self.block_log[peer.chain.height], None
                )
        yield from self._commit_and_notify(index, peer, block, memo)

    def _commit_one(self, index: int, peer: Peer, block, memo=None):
        """Validate and commit one block on one peer (CPU + service time).

        Returns the commit result, or ``None`` when the peer's chain
        already moved past this block while waiting for the CPU — a
        redelivered copy or a catch-up replay committed it first.
        """
        env = self.env
        cpu = self._peer_cpus[index]
        request = cpu.request()
        yield request
        try:
            if peer.chain.height != block.number:
                return None
            # A gray-slow peer grinds through validation at a multiple
            # of the healthy service time.
            service = (
                self.config.commit_block_overhead_ms
                + sum(self._validate_service_ms(tx) for tx in block.transactions)
            ) * self.link.service_factor(f"peer:{index}")
            yield env.timeout(service)
            with self.phase_wall.track("commit"):
                try:
                    result = peer.validate_and_commit(
                        block,
                        self._peer_keys,
                        self._peer_secrets,
                        policy=self.config.endorsement_policy,
                        memo=memo,
                    )
                except SimulatedCrashError as crash:
                    # An armed crash point fired inside this peer's
                    # durable commit path: the peer is dead mid-write.
                    # Its in-memory containers are now untrusted (the
                    # recovery path rebuilds them from the durable
                    # store); a link that re-sends marks it down so
                    # deliveries queue until it recovers, the reliable
                    # link re-raises.
                    self.link.node_died(f"peer:{index}", crash)
                    return None
        finally:
            cpu.release(request)
        return result

    def _commit_and_notify(self, index: int, peer: Peer, block, memo=None):
        """Commit one block; on the reference peer, notify the clients."""
        env = self.env
        result = yield from self._commit_one(index, peer, block, memo)
        if self._commit_progress is not None:
            # A waiting group cutter re-reads the heights (also when this
            # copy found its block already committed by a catch-up).
            progress, self._commit_progress = self._commit_progress, None
            progress.succeed()
        if result is None:
            return
        if peer is self.reference_peer:
            self._inflight_tids.difference_update(result.codes)
            self.phase_wall.record_block_outcome(
                block.number,
                committed=result.valid_count,
                aborted=result.invalid_count,
                rebased=result.rebased_count,
            )
            if self.track_state_roots:
                with self.phase_wall.track("state_root"):
                    self.state_roots[block.number] = peer.current_state_root()
            for listener in self._block_listeners:
                listener(block, result)
            yield env.timeout(self.config.latency.client_to_peer)
            for tid, code in result.codes.items():
                if code is not ValidationCode.VALID:
                    self.metrics.invalid_txs.increment()
                event = self._commit_events.pop(tid, None)
                if event is not None:
                    event.succeed(
                        CommitNotice(
                            tid=tid, code=code, block_number=block.number
                        )
                    )

    # -- events -------------------------------------------------------------------

    def on_block(self, listener) -> None:
        """Subscribe to committed blocks (Fabric's block event service).

        ``listener(block, commit_result)`` runs after the reference peer
        validates and commits each block, before client notifications.
        """
        self._block_listeners.append(listener)

    def remove_block_listener(self, listener) -> None:
        """Unsubscribe a previously registered block listener."""
        self._block_listeners.remove(listener)

    # -- integrity --------------------------------------------------------------

    def verify_convergence(self) -> None:
        """Assert all peers hold identical chains and state.

        Raises
        ------
        LedgerError
            If any two peers diverge — would indicate a simulator bug or
            injected tampering.
        """
        reference = self.reference_peer
        reference.chain.verify_integrity()
        for peer in self.peers[1:]:
            if peer.chain.height != reference.chain.height:
                raise LedgerError(
                    f"peer {peer.peer_id} height {peer.chain.height} != "
                    f"{reference.chain.height}"
                )
            if peer.chain.tip_hash != reference.chain.tip_hash:
                raise LedgerError(f"peer {peer.peer_id} tip hash diverged")
            if peer.statedb.snapshot() != reference.statedb.snapshot():
                raise LedgerError(f"peer {peer.peer_id} state diverged")

    def total_storage_bytes(self) -> int:
        """Ledger plus world-state footprint at the reference peer."""
        peer = self.reference_peer
        return peer.chain.total_bytes() + peer.statedb.size_bytes()


class Gateway:
    """A client-side handle binding a user identity to a network.

    Mirrors the Fabric Gateway SDK surface: ``invoke`` for ordered
    transactions, ``query`` for local reads.
    """

    def __init__(self, network: FabricNetwork, user: User):
        self.network = network
        self.user = user

    def invoke(
        self,
        chaincode: str,
        fn: str,
        args: dict[str, Any] | None = None,
        **proposal_fields: Any,
    ) -> CommitNotice:
        """Synchronous invoke as this user."""
        return self.network.invoke_sync(
            self.user, chaincode, fn, args=args, **proposal_fields
        )

    def submit_async(
        self,
        chaincode: str,
        fn: str,
        args: dict[str, Any] | None = None,
        **proposal_fields: Any,
    ) -> Event:
        """Asynchronous invoke; returns the commit event."""
        proposal = Proposal(
            chaincode=chaincode,
            fn=fn,
            args=args or {},
            creator=self.user.user_id,
            **proposal_fields,
        )
        return self.network.submit(proposal)

    def query(self, chaincode: str, fn: str, args: dict[str, Any] | None = None) -> Any:
        """Local read-only chaincode execution."""
        return self.network.query(chaincode, fn, args, creator=self.user.user_id)
