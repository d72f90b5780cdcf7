"""Peers: endorsement execution and validate-and-commit.

A peer holds its own copy of the blockchain, a local state database,
and the installed chaincodes.  This module is purely *functional* —
service times and queueing live in :mod:`repro.fabric.network`, which
wraps these operations in simulation processes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.crypto.hashing import hmac_sha256
from repro.errors import ChaincodeError
from repro.fabric import occ
from repro.fabric.chaincode import ChaincodeRegistry, TxContext
from repro.fabric.endorser import (
    Proposal,
    ProposalResponse,
    parse_rwset,
    simulated_signature,
)
from repro.fabric.identity import User
from repro.fabric.validation import BlockValidationMemo
from repro.ledger.block import Block
from repro.ledger.chain import Blockchain
from repro.ledger.merkle_state import IncrementalStateDigest
from repro.ledger.statedb import StateDatabase, Version
from repro.ledger.transaction import Transaction


class ValidationCode(enum.Enum):
    """Outcome of per-transaction validation at commit time."""

    VALID = "valid"
    MVCC_CONFLICT = "mvcc_conflict"
    ENDORSEMENT_POLICY_FAILURE = "endorsement_policy_failure"
    BAD_CHAINCODE = "bad_chaincode"


@dataclass
class CommitResult:
    """Per-block commit outcome: validation code for each transaction."""

    block_number: int
    codes: dict[str, ValidationCode]
    #: tid -> rebased write set, for transactions the occ commit backend
    #: re-executed at validation time instead of aborting (empty under
    #: the reference backend).  These are the writes actually applied —
    #: the block's embedded rwsets still hold the endorsement-time ones.
    rebased: dict[str, dict] = field(default_factory=dict)

    @property
    def valid_count(self) -> int:
        return sum(1 for c in self.codes.values() if c is ValidationCode.VALID)

    @property
    def invalid_count(self) -> int:
        return len(self.codes) - self.valid_count

    @property
    def rebased_count(self) -> int:
        return len(self.rebased)


class Peer:
    """One blockchain peer with its ledger, state, and chaincodes."""

    def __init__(
        self,
        peer_id: str,
        identity: User,
        registry: ChaincodeRegistry,
        chain_name: str = "main",
        real_signatures: bool = True,
        commit_backend: occ.CommitBackend = occ.COMMIT_BACKENDS["reference"],
    ):
        self.peer_id = peer_id
        self.identity = identity
        self.registry = registry
        self.chain = Blockchain(chain_name)
        self.statedb = StateDatabase()
        self.real_signatures = real_signatures
        #: Commit-time conflict policy (abort vs. occ rebase; see
        #: :mod:`repro.fabric.occ`), handed down by the network.  Fixed
        #: for the peer's life: recovery replays must rebase exactly the
        #: way the original commits did.
        self.commit_backend = commit_backend
        #: tid -> :class:`repro.fabric.occ.ResimRecord` — the proposal
        #: context needed to re-execute a conflicted transaction.  The
        #: network shares one index across all its peers; without an
        #: entry a conflicted transaction aborts as under the reference
        #: backend.
        self.resim: dict[str, occ.ResimRecord] = {}
        #: Subscribed from genesis: an incremental digest must observe
        #: every write to stay coherent.
        self._digest = IncrementalStateDigest(self.statedb)
        #: MAC secret for simulated signatures; shared via the network's
        #: trust map so other peers can verify.
        self.mac_secret = hmac_sha256(b"peer-secret", peer_id.encode())
        #: Validation codes for every transaction this peer committed.
        self.validation_codes: dict[str, ValidationCode] = {}
        #: Durable store (:class:`repro.storage.NodeStore`) when the
        #: network runs with a storage backend; None = purely in-memory.
        self.store = None
        #: :class:`repro.storage.RecoveryReport` of the most recent
        #: ``recover_from_chain`` call (None until the first recovery).
        self.last_recovery = None

    def attach_store(self, store) -> None:
        """Attach a durable store; subsequent commits are WAL-logged."""
        self.store = store

    def empty_replica(self) -> "Peer":
        """A replica of this peer that has committed nothing yet.

        Same identity, chaincode registry, chain name, signature mode
        and commit policy, and the *same* re-simulation index — a
        replica that replays this peer's blocks must rebase exactly as
        this peer did.  No store is attached, so what it commits is not
        logged to this peer's WAL.
        """
        replica = Peer(
            peer_id=self.peer_id,
            identity=self.identity,
            registry=self.registry,
            chain_name=self.chain.name,
            real_signatures=self.real_signatures,
            commit_backend=self.commit_backend,
        )
        replica.resim = self.resim
        return replica

    # -- endorsement -------------------------------------------------------

    def endorse(self, proposal: Proposal) -> ProposalResponse:
        """Simulate the proposal against committed state and sign the result.

        Raises
        ------
        ChaincodeError
            If the chaincode or function is missing, or execution fails.
        """
        chaincode = self.registry.get(proposal.chaincode)
        ctx = TxContext(
            chaincode=proposal.chaincode,
            statedb=self.statedb,
            tid=proposal.tid,
            creator=proposal.creator,
        )
        response = chaincode.invoke(ctx, proposal.fn, proposal.args)
        payload = proposal.signing_payload(ctx.read_set, ctx.write_set)
        if self.real_signatures:
            signature = self.identity.sign(payload)
        else:
            signature = simulated_signature(self.mac_secret, payload)
        return ProposalResponse(
            peer_id=self.peer_id,
            read_set=dict(ctx.read_set),
            write_set=dict(ctx.write_set),
            response=response,
            signature=signature,
        )

    # -- validation and commit ----------------------------------------------

    def _verify_endorsements(
        self,
        tx: Transaction,
        peer_keys: dict[str, object],
        peer_secrets: dict[str, bytes],
        policy: int,
        rwset: tuple[dict, dict],
    ) -> bool:
        """Check the endorsement policy: ``policy`` distinct peers signed
        the parsed ``rwset``; a peer listed twice counts once."""
        proposal_like = Proposal(
            chaincode=tx.nonsecret.get("cc", ""),
            fn=tx.nonsecret.get("fn", ""),
            tid=tx.tid,
        )
        payload = proposal_like.signing_payload(*rwset)
        endorsers: set[str] = set()
        for peer_id, signature_hex in tx.nonsecret.get("endorsements", []):
            if peer_id in endorsers:
                continue
            signature = bytes.fromhex(signature_hex)
            if self.real_signatures:
                public_key = peer_keys.get(peer_id)
                if public_key is None:
                    continue
                try:
                    public_key.verify(payload, signature)  # type: ignore[attr-defined]
                except Exception:
                    continue
                endorsers.add(peer_id)
            else:
                secret = peer_secrets.get(peer_id)
                if secret is None:
                    continue
                if simulated_signature(secret, payload) == signature:
                    endorsers.add(peer_id)
        return len(endorsers) >= policy

    def validate_and_commit(
        self,
        block: Block,
        peer_keys: dict[str, object],
        peer_secrets: dict[str, bytes],
        policy: int = 1,
        memo: BlockValidationMemo | None = None,
    ) -> CommitResult:
        """Validate every transaction in ``block`` and commit the block.

        Follows Fabric semantics: invalid transactions stay in the block
        (and in storage) but their write sets are not applied.

        ``memo`` is the block's :class:`~repro.fabric.validation
        .BlockValidationMemo`, shared by the replicas validating one
        delivery; a lone validation (catch-up, genesis replay) passes
        ``None`` and gets a fresh one, so every commit runs the one fold
        (``_validate_memoised``).  Its reference is the isolation oracle,
        :meth:`repro.faults.InvariantMonitor.assert_isolation`.  The
        chain accepts the block before any write, so a rejected block
        (wrong number, broken link, a tid already committed) raises with
        chain, state and codes untouched.
        """
        memo = memo or BlockValidationMemo()
        tip = self.chain.tip_hash  # what shared verdicts are keyed on
        self.chain.append(block, prevalidated=True, size_bytes=memo.admit(block))
        codes, rebased = self._validate_memoised(
            block, peer_keys, peer_secrets, policy, memo, tip
        )
        self.validation_codes.update(codes)
        if self.store is not None:
            # Apply-then-log: the block is in memory before the WAL
            # append, so a crash inside the append loses both together
            # (process memory dies with the process) and the durable
            # prefix stays consistent; the gap is re-fetched via
            # catch-up.  A SimulatedCrashError here propagates to the
            # network, which treats this peer as dead.  Rebased write
            # sets are logged alongside the codes: recovery applies the
            # writes that actually committed, not the endorsement-time
            # ones embedded in the block.
            self.store.log_block(block, codes, rebased=rebased, txs=memo.wal_txs)
            if self.store.snapshot_due(self.chain.height):
                self.store.write_snapshot_for(self)
        return CommitResult(block_number=block.number, codes=codes, rebased=rebased)

    def _write(self, block_number: int, position: int, write_set: dict) -> None:
        """Apply one valid transaction's writes — the only state write."""
        version = Version(block=block_number, position=position)
        for key, value in write_set.items():
            self.statedb.put(key, value, version)

    def _try_rebase(self, tx: Transaction, original_writes: dict) -> dict | None:
        """Re-execute a conflicted transaction against current state.

        Returns the rebased write set to commit, or ``None`` when the
        transaction must still abort (see :mod:`repro.fabric.occ` for
        the abort rules).  Called from the in-order validation pass, so
        "current state" includes every earlier valid transaction's
        writes — the rebase sees exactly what a fresh endorsement at
        this point in the serial order would see.
        """
        backend = self.commit_backend
        if not backend.rebase_conflicts:
            return None
        record = self.resim.get(tx.tid)
        if record is None:
            return None
        try:
            chaincode = self.registry.get(record.chaincode)
        except ChaincodeError:
            return None
        for _ in range(backend.max_rebase_attempts):
            ctx = TxContext(record.chaincode, self.statedb, tx.tid, record.creator)
            try:
                response = chaincode.invoke(ctx, record.fn, record.args)
            except ChaincodeError:
                # The business rule no longer holds (revoked grant,
                # moved item, double spend): abort is the right answer.
                return None
            if occ.business_outcome_changed(record.response, response):
                return None
            if set(ctx.write_set) != set(original_writes):
                return None
            # The re-execution's reads must still match current state.
            # Within one validation pass nothing else writes, so a
            # deterministic chaincode passes on the first attempt; the
            # loop is the budget for non-deterministic ones.
            if all(
                self.statedb.version_of(key) == version
                for key, version in ctx.read_set.items()
            ):
                return dict(ctx.write_set)
        return None

    def _validate_memoised(
        self,
        block: Block,
        peer_keys: dict[str, object],
        peer_secrets: dict[str, bytes],
        policy: int,
        memo: BlockValidationMemo,
        tip: bytes,
    ) -> tuple[dict[str, ValidationCode], dict[str, dict]]:
        """The MVCC fold: validate ``block`` in order, applying valid writes.

        Endorsement checks and rwset parsing depend only on transaction
        bytes and key material, so ``memo`` holds them once per block.
        Each MVCC verdict is taken against the state the valid
        transactions before it left, as Fabric does.  State is a
        deterministic fold of the chain, so a replica whose pre-block
        ``tip`` equals the first validator's reuses its verdicts and only
        applies the writes; any other replica computes its own.
        """
        txs = block.transactions
        shared = memo.verdicts_for(tip)
        if shared is not None:
            # Rebased write sets ride with the verdicts: what committed,
            # not the endorsement-time writes.
            for position, tx in enumerate(txs):
                if shared[tx.tid] is ValidationCode.VALID:
                    writes = memo.rebased.get(tx.tid, memo.rwsets[tx.tid][1])
                    self._write(block.number, position, writes)
            return dict(shared), dict(memo.rebased)
        for tx in txs:
            if tx.tid not in memo.endorsement_ok:
                rwset = parse_rwset(tx)
                memo.endorsement_ok[tx.tid] = self._verify_endorsements(
                    tx, peer_keys, peer_secrets, policy, rwset
                )
                memo.rwsets[tx.tid] = rwset

        codes: dict[str, ValidationCode] = {}
        rebased: dict[str, dict] = {}
        for position, tx in enumerate(txs):
            if not memo.endorsement_ok[tx.tid]:
                codes[tx.tid] = ValidationCode.ENDORSEMENT_POLICY_FAILURE
                continue
            read_set, write_set = memo.rwsets[tx.tid]
            clean = all(
                self.statedb.version_of(key) == version
                for key, version in read_set.items()
            )
            if not clean:
                # occ re-executes a conflicted transaction right here.
                new_writes = self._try_rebase(tx, write_set)
                if new_writes is None:
                    codes[tx.tid] = ValidationCode.MVCC_CONFLICT
                    continue
                rebased[tx.tid] = new_writes
                write_set = new_writes
            codes[tx.tid] = ValidationCode.VALID
            self._write(block.number, position, write_set)
        memo.store_verdicts(tip, codes, rebased)
        return codes, rebased

    # -- crash recovery ------------------------------------------------------

    def reset_world_state(self) -> None:
        """Discard chain, state, digest, and codes — the crash model's
        "everything in memory is gone" starting point for recovery."""
        self.chain = Blockchain(self.chain.name)
        self.statedb = StateDatabase()
        self._digest = IncrementalStateDigest(self.statedb)
        self.validation_codes = {}

    def apply_recovered_block(
        self,
        block: Block,
        codes: dict[str, ValidationCode],
        size_bytes: int | None = None,
        apply_state: bool = True,
        rebased: dict[str, dict] | None = None,
    ) -> None:
        """Re-commit a block from the durable log without re-validating.

        The WAL records each block's validation codes, so recovery
        applies exactly the writes the original commit applied (VALID
        transactions' write sets, stamped ``Version(block, position)``)
        instead of re-running signatures and MVCC — that is what makes
        restart cost proportional to the replayed suffix.  The chain
        append still checks the hash link, so a corrupted record cannot
        splice in.  With ``apply_state=False`` only the chain and codes
        are rebuilt (the state comes from a snapshot instead).

        ``rebased`` maps tids the occ commit backend rebased to the
        write sets that actually committed — those override the
        endorsement-time write sets embedded in the block, keeping the
        replayed state byte-identical without re-running chaincode.
        """
        self.chain.append(block, prevalidated=True, size_bytes=size_bytes)
        if apply_state:
            rebased = rebased or {}
            for position, tx in enumerate(block.transactions):
                if codes.get(tx.tid) is ValidationCode.VALID:
                    writes = rebased.get(tx.tid)
                    if writes is None:
                        writes = parse_rwset(tx)[1]
                    self._write(block.number, position, writes)
        self.validation_codes.update(codes)

    def recover_from_chain(
        self,
        peer_keys: dict[str, object],
        peer_secrets: dict[str, bytes],
        policy: int = 1,
    ) -> int:
        """Rebuild world state after a crash; returns blocks recovered.

        With a durable store attached, recovery loads the newest
        verified snapshot and replays only the WAL suffix past it (see
        :meth:`repro.storage.NodeStore.recover_peer`); the in-memory
        chain is *not* trusted — it died with the process.  Without a
        store, the legacy model applies: the chain object itself is
        durable, and every block is replayed through the normal
        validation path from genesis, its Merkle root rebuilt from the
        transactions' bytes — what a transaction retained before the
        crash is not durable either.  Both paths leave
        :attr:`last_recovery` describing what was done, and both
        reproduce byte-identical state, digest root, and validation
        codes (state is a deterministic fold of the chain).
        """
        if self.store is not None:
            report = self.store.recover_peer(self)
            self.last_recovery = report
            return report.chain_blocks_loaded
        from repro.storage.node import RecoveryReport

        blocks = list(self.chain)
        self.reset_world_state()
        for block in blocks:
            block.audit_structure()
            self.validate_and_commit(block, peer_keys, peer_secrets, policy=policy)
        self.last_recovery = RecoveryReport(
            node_id=self.peer_id,
            mode="genesis-replay",
            snapshot_height=0,
            chain_blocks_loaded=len(blocks),
            state_blocks_replayed=len(blocks),
            revalidated_blocks=len(blocks),
            torn_tail=False,
            wal_end_offset=0,
        )
        return len(blocks)

    def state_digest(self) -> IncrementalStateDigest:
        """The digest of current world state (``root``/``prove``/``verify``).

        Maintained incrementally (amortised O(dirty·log n) per block);
        byte-identical to a full rebuild by
        :class:`~repro.ledger.merkle_state.StateDigest`, which the
        differential tests compare it against.
        """
        return self._digest

    def current_state_root(self) -> bytes:
        """Merkle root of this peer's world state."""
        return self.state_digest().root()
