"""Two-phase commit across chains: the contracts and the one driver.

The :class:`CoordinatorContract`/:class:`ShardContract` pair is the
paper's multi-chain baseline (AHL-style: one blockchain per view, the
main chain as coordinator), and :class:`TwoPhaseCoordinator` is the only
loop that drives it, over one deployment class
(:class:`repro.sharding.network.MultiChainDeployment`).  The baseline
(:class:`repro.baseline.CrossChainDeployment`) and the sharded
scale-out path (:class:`repro.sharding.ShardedNetwork`, for the
minority of traffic whose writes span shards) are that class built with
different data, not a second loop or a second surface.

Hardening the protocol relies on:

- ``decide`` is **idempotent-or-reject**: a recovering coordinator may
  replay its decision any number of times, but a *conflicting* second
  decision is an error.
- ``prepare`` under a new lock key **releases the old lock** a partial
  earlier attempt took.
- ``commit`` is **idempotent**: re-committing an xid whose record
  already materialised is a no-op replay, not an "unprepared" error —
  a recovering coordinator cannot know which commit fan-outs landed
  before the crash, so phase 2 must be safely re-drivable.
- :class:`TwoPhaseCoordinator` write-ahead-logs its state (begin,
  decision, done) through the storage layer **before** acting on it,
  so a coordinator crash at any point leaves a journal from which
  :meth:`TwoPhaseCoordinator.recover` re-drives every in-flight
  transaction to the outcome already decided — or aborts it if no
  decision was durable.  2PC's classic blocking window (participant
  locks held while the coordinator is down) ends at recovery.

:func:`assert_atomic` is the one all-or-nothing check; every
``InvariantMonitor.check()`` runs it over the chain it watches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ChaincodeError, TwoPhaseCommitError
from repro.fabric.chaincode import Chaincode, TxContext
from repro.fabric.endorser import Proposal
from repro.fabric.peer import ValidationCode

COORDINATOR_CHAINCODE = "coordinator"
SHARD_CHAINCODE = "twopc"


class CoordinatorContract(Chaincode):
    """2PC coordinator records on the coordinator chain."""

    name = COORDINATOR_CHAINCODE

    def fn_begin(self, ctx: TxContext, xid: str, views: list[str]) -> None:
        """Record the start of a cross-chain transaction."""
        if ctx.get_state(f"xact~{xid}") is not None:
            raise ChaincodeError(f"cross-chain transaction {xid!r} already begun")
        ctx.put_state(f"xact~{xid}", {"views": views, "state": "begun"})

    def fn_record_vote(
        self, ctx: TxContext, xid: str, view: str, prepared: bool
    ) -> None:
        """Relay one shard's prepare vote onto the coordinator chain.

        In AHL the coordinating committee processes every shard's vote
        as a transaction of its own — which is why the coordinator's
        load grows with the number of involved view chains (and why the
        baseline degrades on the larger WL2 workload, Fig 8).
        """
        ctx.put_state(f"vote~{xid}~{view}", bool(prepared))

    def fn_decide(self, ctx: TxContext, xid: str, outcome: str) -> None:
        """Record the global commit/abort decision.

        2PC decisions are final: a repeated identical ``decide`` (a
        recovering coordinator replaying its log) is an idempotent
        no-op, while a conflicting one is an error — without this
        check, a second decision could flip ``aborted`` → ``committed``
        after shards already acted on the first.
        """
        record = ctx.get_state(f"xact~{xid}")
        if record is None:
            raise ChaincodeError(f"unknown cross-chain transaction {xid!r}")
        if outcome not in ("committed", "aborted"):
            raise ChaincodeError(f"invalid 2PC outcome {outcome!r}")
        current = record["state"]
        if current == outcome:
            return
        if current in ("committed", "aborted"):
            raise ChaincodeError(
                f"cross-chain transaction {xid!r} already decided "
                f"{current!r}; cannot re-decide {outcome!r}"
            )
        ctx.put_state(
            f"xact~{xid}", {"views": record["views"], "state": outcome}
        )

    def fn_status(self, ctx: TxContext, xid: str) -> dict | None:
        """Query a cross-chain transaction's decision record."""
        return ctx.get_state(f"xact~{xid}")


class ShardContract(Chaincode):
    """2PC participant logic on a shard (or baseline view chain)."""

    name = SHARD_CHAINCODE

    def fn_prepare(
        self, ctx: TxContext, xid: str, lock_key: str, payload: dict[str, Any]
    ) -> dict:
        """Phase 1: acquire the per-item lock and park the payload.

        Returns ``{"prepared": False, ...}`` rather than raising when
        the lock is held — a negative vote, not an execution error.
        """
        holder = ctx.get_state(f"lock~{lock_key}")
        if holder is not None and holder != xid:
            return {"prepared": False, "conflict_with": holder}
        if ctx.get_state(f"record~{xid}") is not None:
            # The transaction already committed here (a recovering
            # coordinator re-driving phase 1 after a crash between a
            # shard's commit and the done marker): nothing to lock.
            return {"prepared": True, "replayed": True}
        pending = ctx.get_state(f"pending~{xid}")
        if pending is not None and pending["lock_key"] != lock_key:
            # Re-prepare under a different key (a coordinator retry
            # after a partial failure): release the first lock, or it
            # would be held forever — commit/abort only release the
            # lock named in the *current* pending record.
            ctx.put_state(f"lock~{pending['lock_key']}", None)
        ctx.put_state(f"lock~{lock_key}", xid)
        ctx.put_state(f"pending~{xid}", {"lock_key": lock_key, "payload": payload})
        return {"prepared": True}

    def fn_commit(self, ctx: TxContext, xid: str) -> dict:
        """Phase 2: materialise the payload on this shard.

        The payload is written into contract state under the
        transaction's id.  Idempotent: a commit of an xid whose record
        already exists (a recovering coordinator re-driving phase 2)
        is a no-op replay; committing an xid that was never prepared
        *and* never committed is still an error.
        """
        pending = ctx.get_state(f"pending~{xid}")
        if pending is None:
            if ctx.get_state(f"record~{xid}") is not None:
                return {"committed": True, "replayed": True}
            raise ChaincodeError(f"commit of unprepared transaction {xid!r}")
        ctx.put_state(f"record~{xid}", pending["payload"])
        ctx.put_state(f"lock~{pending['lock_key']}", None)
        ctx.put_state(f"pending~{xid}", None)
        return {"committed": True}

    def fn_abort(self, ctx: TxContext, xid: str) -> dict:
        """Release the lock without applying the payload (idempotent)."""
        pending = ctx.get_state(f"pending~{xid}")
        if pending is not None:
            ctx.put_state(f"lock~{pending['lock_key']}", None)
            ctx.put_state(f"pending~{xid}", None)
        return {"aborted": True}

    def fn_get_record(self, ctx: TxContext, xid: str) -> dict | None:
        """Query one committed record (query only)."""
        return ctx.get_state(f"record~{xid}")

    def fn_record_count(self, ctx: TxContext) -> int:
        """Number of committed records on this shard (query only)."""
        return sum(
            1
            for _key, value in ctx.scan_prefix("record~")
            if value is not None
        )


# -- the crash-safe coordinator driver ----------------------------------------

_xid_counter = itertools.count(1)


def fresh_xid() -> str:
    """Mint a process-unique 2PC transaction id."""
    return f"xid-{next(_xid_counter):08d}"


@dataclass(frozen=True)
class CrossShardWrite:
    """One participant's slice of a 2PC transaction."""

    #: The participant: a shard index, or a baseline view chain's name.
    shard: int | str
    #: The per-item lock taken during prepare.
    lock_key: str
    #: What ``commit`` materialises on the participant (JSON-serialisable).
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass
class CrossShardResult:
    """Outcome of one 2PC transaction."""

    xid: str
    committed: bool
    shards: list
    coordinator_shard: int | str
    latency_ms: float = 0.0
    #: True when :meth:`TwoPhaseCoordinator.recover` re-drove this
    #: transaction from the journal instead of a live request.
    replayed: bool = False
    #: Participants that voted no, or were dark (empty on commit).
    refused: list = field(default_factory=list)
    #: Prepare rounds run (0 when a dark participant presumed an abort).
    attempts: int = 0
    #: Prepare, commit and abort transactions sent to participants.
    participant_txs: int = 0


class CoordinatorLog:
    """Write-ahead journal of the coordinator's 2PC state.

    Backed by the storage layer's owner-journal format (CRC-framed
    records, torn tail truncated on replay, compaction after confirmed
    completion).  Entry kinds:

    - ``begin`` — the full write list, logged before any on-chain
      action;
    - ``decision`` — the commit/abort outcome, logged **before** the
      phase-2 fan-out or the decide transaction (the durability point:
      once logged, recovery must re-drive this outcome);
    - ``done`` — phase 2 confirmed everywhere; the xid is compacted
      out of the journal.

    With no store attached (durability off) the log is inert and
    :meth:`pending` is empty.
    """

    def __init__(self, store=None):
        self.store = store

    @classmethod
    def on(cls, network, owner_id: str = "crossshard-coordinator") -> "CoordinatorLog":
        """The journal in ``network``'s durability runtime, if any."""
        storage = network.storage
        return cls(None if storage is None else storage.owner_store(owner_id))

    def _log(self, payload: dict[str, Any]) -> None:
        if self.store is not None:
            self.store.log(payload)

    def log_begin(self, xid: str, writes: list[CrossShardWrite], coordinator) -> None:
        self._log(
            {
                "op": "begin",
                "xid": xid,
                "coordinator": coordinator,
                "writes": [vars(w) for w in writes],
            }
        )

    def log_decision(self, xid: str, outcome: str) -> None:
        self._log({"op": "decision", "xid": xid, "outcome": outcome})

    def log_done(self, xid: str) -> None:
        self._log({"op": "done", "xid": xid})
        self.compact()

    def entries(self) -> list[dict[str, Any]]:
        if self.store is None:
            return []
        return self.store.replay()

    def pending(self) -> dict[str, dict[str, Any]]:
        """In-flight transactions: begun but not marked done.

        Returns xid → ``{"writes": [CrossShardWrite...], "coordinator":
        key, "outcome": str | None}`` in journal order.
        """
        open_xacts: dict[str, dict[str, Any]] = {}
        for entry in self.entries():
            xid = entry["xid"]
            if entry["op"] == "begin":
                open_xacts[xid] = {
                    "coordinator": entry["coordinator"],
                    "writes": [CrossShardWrite(**w) for w in entry["writes"]],
                    "outcome": None,
                }
            elif entry["op"] == "decision" and xid in open_xacts:
                open_xacts[xid]["outcome"] = entry["outcome"]
            elif entry["op"] == "done":
                open_xacts.pop(xid, None)
        return open_xacts

    def compact(self) -> None:
        """Drop completed transactions from the journal."""
        if self.store is None:
            return
        live = self.pending()
        self.store.rewrite([e for e in self.entries() if e["xid"] in live])


class TwoPhaseCoordinator:
    """The one 2PC driver, for one client over one deployment.

    ``deployment`` is a
    :class:`~repro.sharding.network.MultiChainDeployment` (sharded or
    the baseline): ``env``, ``chain(key)``, ``participant_name(key)``
    (what a ``begin`` record calls a participant),
    ``coordinator_shard_for(xid)``, ``shard_reachable(key)``,
    ``count_cross_shard(event)``, ``coordinator_log()`` and the
    protocol's data: ``relays_votes`` (AHL), ``prepare_timeout_ms`` (a
    slower attempt fails even on all-yes votes), ``max_retries`` and
    ``retry_backoff_ms``.  The
    ``user_id`` of ``client`` (a ``ShardedGateway`` or a ``User``) is
    registered on every chain and creates every transaction.
    """

    def __init__(self, deployment, client, log: CoordinatorLog | None = None):
        self.deployment = deployment
        self.client = client
        self.env = deployment.env
        self.log = log if log is not None else deployment.coordinator_log()
        self.stats = dict.fromkeys(
            ["begun", "committed", "aborted", "replayed", "prepares", "refusals"], 0
        )
        #: Transactions aborted upfront because a participant shard was
        #: dark (partitioned/down) — no prepare was ever sent.
        self.stats["presumed_aborts"] = 0

    def _submit(self, key, chaincode: str, fn: str, args: dict):
        proposal = Proposal(
            chaincode, fn, args, creator=self.client.user_id, contract_write=True
        )
        return self.deployment.chain(key).submit(proposal)

    def _fan_out(self, writes: list[CrossShardWrite], fn: str, xid: str):
        """``fn`` on every participant of ``writes``, in parallel."""
        events = []
        for w in writes:
            args = {"xid": xid}
            if fn == "prepare":
                args.update(lock_key=w.lock_key, payload=w.payload)
            events.append(self._submit(w.shard, SHARD_CHAINCODE, fn, args))
        return self.env.all_of(events)

    # -- the protocol --------------------------------------------------------

    def execute(self, writes: list[CrossShardWrite], xid: str | None = None):
        """Run one 2PC transaction as a process; returns its event,
        whose value is a :class:`CrossShardResult`."""
        return self.env.process(self.drive(writes, xid))

    def drive(self, writes: list[CrossShardWrite], xid: str | None = None):
        """The one loop, as a generator: :meth:`execute` runs it as a
        process, the baseline inlines it (``yield from``) into the
        request process that committed the business transaction."""
        keys = [w.shard for w in writes]
        if len(set(keys)) != len(keys):
            # The shard contract parks one pending payload per xid, so a
            # transaction gets exactly one write per participant —
            # callers merge multi-item payloads before calling.
            raise TwoPhaseCommitError(f"duplicate shard in one write list: {keys}")
        env, deployment = self.env, self.deployment
        started = env.now
        xid = xid or fresh_xid()
        coordinator = deployment.coordinator_shard_for(xid)
        self.stats["begun"] += 1
        deployment.count_cross_shard("begun")

        # Durability point 0: the intent.  Logged before the begin
        # transaction so recovery knows this xid existed at all.
        self.log.log_begin(xid, writes, coordinator)
        names = [deployment.participant_name(key) for key in keys]
        yield self._submit(
            coordinator, COORDINATOR_CHAINCODE, "begin", {"xid": xid, "views": names}
        )

        # Presumed abort for dark participants: a prepare sent at a
        # partitioned shard would burn its whole retry budget and still
        # die, while any lock it *did* manage to take on the far side
        # would be stranded until heal.  Deciding "aborted" before
        # phase 1 even starts keeps the protocol safe (nothing was
        # prepared anywhere, so there is nothing to roll back on the
        # dark shard) and fast.
        dark = sorted(key for key in keys if not deployment.shard_reachable(key))
        if dark:
            self.stats["refusals"] += len(dark)
            self.stats["presumed_aborts"] += 1
        live = [w for w in writes if w.shard not in dark]
        refused, outcome, attempts, txs = dark, "aborted", 0, 0
        while not dark and attempts <= deployment.max_retries:
            attempts += 1
            # Phase 1: prepare on every participant, in parallel.
            sent = env.now
            notices = yield self._fan_out(writes, "prepare", xid)
            in_time = env.now - sent <= deployment.prepare_timeout_ms
            self.stats["prepares"] += len(writes)
            txs += len(writes)
            votes = [
                n.code is ValidationCode.VALID
                and isinstance(n.response, dict)
                and bool(n.response.get("prepared"))
                for n in notices
            ]
            if deployment.relays_votes and writes:
                # AHL processes every participant's vote as a
                # transaction of the coordinating committee — |V| extra
                # coordinator-chain transactions per attempt, which is
                # why the baseline degrades on the larger WL2 (Fig 8).
                relays = [
                    self._submit(
                        coordinator,
                        COORDINATOR_CHAINCODE,
                        "record_vote",
                        {"xid": xid, "view": name, "prepared": vote},
                    )
                    for name, vote in zip(names, votes)
                ]
                yield env.all_of(relays)
            refused = [w.shard for w, vote in zip(writes, votes) if not vote]
            self.stats["refusals"] += len(refused)
            if not refused and in_time:
                outcome = "committed"
                break
            if attempts <= deployment.max_retries:
                # Release whatever this attempt locked, then back off.
                yield self._fan_out(writes, "abort", xid)
                txs += len(writes)
                yield env.timeout(deployment.retry_backoff_ms * attempts)

        # Durability point 1: the decision.  Must hit the journal
        # before the phase-2 fan-out — a crash after this line replays
        # to the same outcome.
        self.log.log_decision(xid, outcome)
        yield from self._finish(xid, live, coordinator, outcome)
        return CrossShardResult(
            xid, outcome == "committed", sorted(keys), coordinator,
            latency_ms=env.now - started, refused=sorted(refused),
            attempts=attempts, participant_txs=txs + len(live),
        )

    def _finish(self, xid, writes, coordinator, outcome: str, decide: bool = True):
        """Phase 2: fan out commit or abort, then record the decision on
        the coordinator chain — last, so a decision on chain means every
        participant already acted on it (what the atomicity oracle
        reads).  Every step is idempotent on chain, so recovery can
        re-drive it; it skips ``decide`` when ``begin`` never landed."""
        fn = "commit" if outcome == "committed" else "abort"
        yield self._fan_out(writes, fn, xid)
        if decide:
            args = {"xid": xid, "outcome": outcome}
            yield self._submit(coordinator, COORDINATOR_CHAINCODE, "decide", args)
        self.log.log_done(xid)
        self.stats[outcome] += 1
        self.deployment.count_cross_shard(outcome)

    # -- crash recovery ------------------------------------------------------

    def recover(self) -> list[CrossShardResult]:
        """Re-drive every journaled in-flight transaction to completion.

        Runs after a (simulated) coordinator restart over the same
        durable store.  For each pending xid:

        - a logged ``decision`` is re-driven verbatim — the phase-2
          fan-out and decide are idempotent on every chain, so fan-outs
          that landed before the crash are harmless no-op replays;
        - no logged decision means the crash hit inside phase 1:
          presumed-abort.  Locks any prepare did take are released, and
          if the on-chain begin record exists the abort is made final
          on the coordinator chain too.

        Returns the replayed results, in journal order.
        """
        results: list[CrossShardResult] = []
        for xid, state in self.log.pending().items():
            writes, coordinator = state["writes"], state["coordinator"]
            outcome, begun = state["outcome"], True
            if outcome is None:
                outcome = "aborted"
                self.log.log_decision(xid, outcome)
                status = self.deployment.chain(coordinator).query(
                    COORDINATOR_CHAINCODE, "status", {"xid": xid}
                )
                begun = status is not None
            finish = self._finish(xid, writes, coordinator, outcome, decide=begun)
            self.env.run(until=self.env.process(finish))
            self.stats["replayed"] += 1
            shards = sorted(w.shard for w in writes)
            results.append(
                CrossShardResult(
                    xid, outcome == "committed", shards, coordinator, replayed=True
                )
            )
        return results


# -- the atomicity oracle -----------------------------------------------------


def assert_atomic(network, xid: str | None = None) -> None:
    """All-or-nothing for the 2PC transactions decided on ``network``
    (every one, or only ``xid``), read from reference-peer state: each
    participant its ``begin`` record names (``network.participants``)
    holds ``record~<xid>`` exactly when the decision is ``committed``,
    and neither ``pending~<xid>`` nor a lock the transaction owns.
    Undecided transactions are skipped: their fan-out may be in flight.
    Raises :class:`~repro.errors.TwoPhaseCommitError` on the first one
    that is not all-or-nothing.
    """
    state = network.reference_peer.statedb
    prefix = f"{COORDINATOR_CHAINCODE}~xact~"
    records = (
        state.scan_prefix(prefix)
        if xid is None
        else [(prefix + xid, state.get(prefix + xid))]
    )
    locks: dict[str, dict[str, str]] = {}  # participant -> {owner xid: lock}
    for key, record in records:
        if record is None or record["state"] not in ("committed", "aborted"):
            continue
        txid, committed = key[len(prefix):], record["state"] == "committed"
        for name in record["views"]:
            if name not in network.participants:
                raise TwoPhaseCommitError(f"{txid}: {name!r} is no participant")
            held = network.participants[name].reference_peer.statedb
            if name not in locks:
                lock_keys = held.scan_prefix(f"{SHARD_CHAINCODE}~lock~")
                locks[name] = {owner: lock for lock, owner in lock_keys if owner}
            has_record = held.get(f"{SHARD_CHAINCODE}~record~{txid}") is not None
            for broken, what in (
                (has_record != committed, "missing" if committed else "present"),
                (held.get(f"{SHARD_CHAINCODE}~pending~{txid}") is not None, "pending"),
                (txid in locks[name], f"locking {locks[name].get(txid)!r}"),
            ):
                if broken:
                    raise TwoPhaseCommitError(
                        f"{txid}: {record['state']} but {what} on {name!r}"
                    )
