"""Continuous safety assertions while faults are being injected.

The :class:`InvariantMonitor` watches a network for the properties that
must hold *regardless of timing*: every transaction id appears in the
ordered log exactly once (no retry may double-commit), the Raft group
never commits a block digest twice, replicas converge to one tip hash
and one world state once faults heal, and — when the network runs with a
durable storage backend — no committed block or state write is lost
across a restart (every peer's durable store must reproduce its live
replica byte-for-byte).  The per-block check runs inside the
block-event stream, so a violation aborts the run at the block that
introduced it rather than surfacing as a diff at the end.

Isolation is checked too: MVCC validation in block order makes the
valid transactions serializable in chain order (Meir et al.,
PAPERS.md), and ``assert_isolation`` re-derives that fold on its own —
the reference the peers' one validation loop is held to.

So are the views (Prop 4.1 and revocation): every view manager
registers itself with its network, and ``assert_views`` holds each of
its views to :func:`~repro.views.verification.view_fold` — VALID
``invoke`` transactions only; a rejected one joins no view.  Every
view manager runs on one chain (a view on a sharded deployment lives
on its home shard), so every view is checked.  And so is two-phase
commit: ``assert_atomicity`` holds every 2PC transaction decided on
the chain all-or-nothing, the baseline's and a shard network's alike.
"""

from __future__ import annotations

from repro.errors import (
    ChaincodeError,
    DecryptionError,
    InvariantViolationError,
    LedgerError,
    StorageError,
    TwoPhaseCommitError,
)
from repro.fabric.chaincode import TxContext
from repro.fabric.endorser import parse_rwset
from repro.fabric.peer import ValidationCode
from repro.ledger.statedb import StateDatabase, Version
from repro.sharding.crossshard import assert_atomic
from repro.views.verification import conceals, view_fold


class InvariantMonitor:
    """Safety watchdog for one (possibly fault-injected) network."""

    def __init__(self, network):
        self.network = network
        self._seen_tids: dict[str, int] = {}
        self.blocks_checked = 0
        network.on_block(self._on_block)

    def _on_block(self, block, result) -> None:
        """Per-block exactly-once check, on the live block-event stream."""
        for tx in block.transactions:
            first = self._seen_tids.setdefault(tx.tid, block.number)
            if first != block.number:
                raise InvariantViolationError(
                    f"transaction {tx.tid!r} committed in block {first} "
                    f"and again in block {block.number}"
                )
        self.blocks_checked += 1

    # -- end-of-run assertions ----------------------------------------------

    def assert_exactly_once(self) -> None:
        """Each tid appears once in the ordered log; Raft digests unique."""
        seen: dict[str, int] = {}
        for block in self.network.block_log:
            for tx in block.transactions:
                if tx.tid in seen:
                    raise InvariantViolationError(
                        f"transaction {tx.tid!r} ordered in block "
                        f"{seen[tx.tid]} and again in block {block.number}"
                    )
                seen[tx.tid] = block.number
        raft = self.network.raft
        if raft is not None:
            for node in raft.nodes:
                tids = [
                    tid
                    for digest in raft.committed_payloads(node.node_id)
                    for tid in digest
                ]
                if len(tids) != len(set(tids)):
                    raise InvariantViolationError(
                        f"raft node {node.node_id} committed a transaction "
                        "digest more than once"
                    )
        pbft = self.network.pbft
        if pbft is not None:
            seqs = [entry.seq for entry in pbft.committed]
            if len(seqs) != len(set(seqs)):
                raise InvariantViolationError(
                    "pbft committed a sequence number more than once"
                )
            tids = [
                tid for entry in pbft.committed for tid in entry.payload
            ]
            if len(tids) != len(set(tids)):
                raise InvariantViolationError(
                    "pbft committed a transaction digest more than once"
                )

    def assert_ordering_integrity(self) -> None:
        """The pbft forensic audit: certificates vs replica copies.

        Every committed block must carry a quorum certificate whose
        signatures verify, and every replica's stored copy must match
        the certified digest.  A violation is raised *with the
        attributable replica id* — the point of retaining signed
        certificates per block.  No-op on the raft/model backends
        (nothing can lie there) and on an intact pbft cluster.
        """
        network = self.network
        pbft = network.pbft
        if pbft is None:
            return
        findings = pbft.forensic_findings()
        if findings:
            described = ", ".join(
                f"{f['kind']} by replica {f['replica']} at seq {f['seq']} "
                f"(view {f['view']})"
                for f in findings[:5]
            )
            raise InvariantViolationError(
                f"pbft ordering integrity violated ({len(findings)} "
                f"finding(s)): {described}"
            )
        from repro.fabric.pbft import payload_digest

        certs = network.block_certs
        for number, block in enumerate(network.block_log):
            cert = certs[number]
            tids = [tx.tid for tx in block.transactions]
            if payload_digest(tids) != cert.digest:
                raise InvariantViolationError(
                    f"block {number} does not match its quorum "
                    f"certificate (view {cert.view}, seq {cert.seq})"
                )

    def assert_convergence(self) -> None:
        """All replicas hold one chain and one world state (post-heal)."""
        try:
            self.network.verify_convergence()
        except LedgerError as exc:
            raise InvariantViolationError(str(exc)) from exc

    def assert_durability(self) -> None:
        """Nothing committed is lost across a restart (storage runs only).

        For every peer with a durable store, a shadow replica is
        rebuilt purely from that store (newest snapshot + WAL suffix)
        and caught up from the ordered log; it must match the live
        peer byte-for-byte — tip hash, world state with versions,
        validation codes, state root.  The orderer's own WAL must
        likewise reproduce the ordered block log.  A no-op when the
        network runs without a storage backend.
        """
        network = self.network
        if network.storage is None:
            return
        from repro.storage import verify_restart

        for peer in network.peers:
            if peer.store is None:
                continue
            try:
                verify_restart(network, peer)
            except StorageError as exc:
                raise InvariantViolationError(str(exc)) from exc
        durable_log = network.storage.restore_block_log()
        live_log = network.block_log
        if len(durable_log) != len(live_log) or any(
            durable.hash() != live.hash()
            for durable, live in zip(durable_log, live_log)
        ):
            raise InvariantViolationError(
                f"durability violation at the orderer: WAL restores "
                f"{len(durable_log)} blocks, live ordered log has "
                f"{len(live_log)}, or hashes diverge"
            )
        if network.pbft is not None:
            commits, _views = network.pbft.replay_wal()
            live = network.pbft.committed
            if len(commits) != len(live) or any(
                record["digest"] != entry.digest
                or record["seq"] != entry.seq
                for record, entry in zip(commits, live)
            ):
                raise InvariantViolationError(
                    f"durability violation at the pbft group: WAL holds "
                    f"{len(commits)} commit certificates, live log has "
                    f"{len(live)}, or digests diverge"
                )

    def assert_isolation(self) -> None:
        """The committed chain is a serial execution in chain order.

        Folds the reference peer's chain into a fresh state database and
        holds each recorded code to it.  VALID: every read is current,
        or the transaction was rebased — its ``network.resim`` record,
        re-executed on the fold, writes the same key set, and those
        writes are applied.  MVCC_CONFLICT: some read is stale.  Other
        codes write nothing.  The fold's entries, values and versions,
        must equal every peer's.  Mutates nothing.
        """
        reference = self.network.reference_peer
        fold = StateDatabase()
        for block in reference.chain:
            for position, tx in enumerate(block.transactions):
                code = reference.validation_codes.get(tx.tid)
                read_set, write_set = parse_rwset(tx)
                stale = any(fold.version_of(k) != v for k, v in read_set.items())
                if code is ValidationCode.VALID and stale:
                    write_set = self._reexecuted(tx, write_set, fold)
                if write_set is None or (
                    code is ValidationCode.MVCC_CONFLICT and not stale
                ):
                    raise InvariantViolationError(
                        f"isolation violation: {tx.tid!r} in block "
                        f"{block.number} is {code.name}, which the "
                        "chain-order fold contradicts"
                    )
                if code is ValidationCode.VALID:
                    version = Version(block.number, position)
                    for key, value in write_set.items():
                        fold.put(key, value, version)
        entries = fold.entries()
        for peer in self.network.peers:
            if peer.statedb.entries() != entries:
                raise InvariantViolationError(
                    f"isolation violation: {peer.peer_id}'s world state is "
                    "not the chain-order fold of its codes"
                )

    def _reexecuted(self, tx, write_set, fold) -> dict | None:
        """A rebased transaction's writes re-derived on ``fold``; None
        when no chain-order re-execution explains its stale read."""
        record = self.network.resim.get(tx.tid)
        if record is None:
            return None
        ctx = TxContext(record.chaincode, fold, tx.tid, record.creator)
        try:
            chaincode = self.network.registry.get(record.chaincode)
            chaincode.invoke(ctx, record.fn, record.args)
        except ChaincodeError:
            return None
        return ctx.write_set if set(ctx.write_set) == set(write_set) else None

    def assert_views(self) -> None:
        """Prop 4.1 and revocation hold for every view of every manager
        registered with the network, judged from owner state and the
        reference peer's chain alone (never from served responses).

        Per view: the owner's ``V_ids`` contain the expected-set fold
        (completeness); every other buffered tid is a VALID on-chain
        transaction, i.e. a historical-access grant (soundness case 1);
        the TxListContract's list plus the owner's unflushed batch is
        the buffer; every buffered secret or key matches its on-chain
        concealment (case 2).  Then revocation: in chain order, a
        ``view-access`` transaction raises ``key_version`` exactly when
        it drops a principal; the newest one grants ``record.authorized``
        (off-chain grants excepted) at ``record.key_version``; and once
        a key has rotated, the newest grant disseminates the current
        ``K_V``, no earlier grant does, and every cached served entry
        opens under it.
        """
        peer = self.network.reference_peer
        for manager in self.network.view_managers:
            # tid -> the buffered data already matched against the chain.
            matched: dict = {}
            for record in manager.buffer.all_views():
                where = f"view {record.name!r} of {manager.owner.user_id!r}"
                expected = {
                    tid
                    for _block, _valid, tids in view_fold(peer, record.predicate)
                    for tid in tids
                }
                buffered = set(record.tids)
                omitted = sorted(expected - buffered)
                foreign = sorted(
                    tid
                    for tid in buffered - expected
                    if peer.validation_codes.get(tid) is not ValidationCode.VALID
                )
                if omitted or foreign:
                    raise InvariantViolationError(
                        f"view violation: {where} omits {omitted[:5]}; it "
                        f"buffers {foreign[:5]}, which are not VALID on chain"
                    )
                if manager.txlist is not None:
                    tids, extra = manager.txlist.unflushed()
                    listed = set(manager.txlist.get_list(record.name))
                    listed.update(tid for tid in tids if tid in expected)
                    listed.update(tid for view, tid in extra if view == record.name)
                    if listed != buffered:
                        raise InvariantViolationError(
                            f"view violation: {where}'s TxListContract list "
                            "and unflushed batch differ from its buffer"
                        )
                for tid in buffered:
                    if matched.get(tid) == record.data[tid]:
                        continue
                    processed = manager._processed_from_buffer(record, tid)
                    key = processed.tx_key
                    if not conceals(
                        peer.chain.get_transaction(tid),
                        manager.concealment,
                        processed.plaintext if key is None else None,
                        key,
                    ):
                        raise InvariantViolationError(
                            f"view violation: {where} buffers data for "
                            f"{tid!r} that does not match the chain"
                        )
                    matched[tid] = record.data[tid]
                self._assert_revocation(manager, record, where)

    def _assert_revocation(self, manager, record, where: str) -> None:
        chain = self.network.reference_peer.chain
        access = [
            chain.get_transaction(tid).nonsecret["public"]
            for tid in sorted(
                manager.access_tx_ids.get(record.name, []), key=chain.locate
            )
        ]
        for prev, cur in zip(access, access[1:]):
            raised = cur["key_version"] - prev["key_version"]
            if raised < 0 or (raised > 0) != bool(
                set(prev["grants"]) - set(cur["grants"])
            ):
                raise InvariantViolationError(
                    f"revocation violation: {where} moves key_version from "
                    f"{prev['key_version']} to {cur['key_version']} while "
                    f"granting {sorted(cur['grants'])}"
                )
        newest = access[-1] if access else {"grants": {}, "key_version": 0}
        granted, authorized = set(newest["grants"]), set(record.authorized)
        if (
            newest["key_version"] != record.key_version
            or not granted <= authorized
            or not authorized - granted <= record.offchain
        ):
            raise InvariantViolationError(
                f"revocation violation: {where} authorizes "
                f"{sorted(authorized)} at key_version {record.key_version}, "
                f"its newest access transaction {sorted(granted)} at "
                f"{newest['key_version']}"
            )
        if record.key_version == 0:
            return
        keys = {public["key_version"]: public for public in access}
        current = record.key.to_bytes()
        for version, public in keys.items():
            disseminated = self._disseminated_key(public["grants"])
            is_current = version == record.key_version
            if disseminated is not None and (disseminated == current) != is_current:
                raise InvariantViolationError(
                    f"revocation violation: {where}'s K_V (key_version "
                    f"{record.key_version}) should "
                    f"{'be' if is_current else 'differ from'} the key "
                    f"disseminated at key_version {version}"
                )
        for _data, entry in record.served_entries().values():
            try:
                record.key.decrypt(bytes.fromhex(entry))
            except DecryptionError as exc:
                raise InvariantViolationError(
                    f"revocation violation: {where} caches a served entry "
                    "that the current K_V does not open"
                ) from exc

    def _disseminated_key(self, grants: dict[str, str]) -> bytes | None:
        """The view key one of ``grants`` seals, opened with its
        principal's private key; None when no principal's key opens it
        (a role key reissued since, say)."""
        msp = self.network.msp
        for principal, sealed in sorted(grants.items()):
            if principal not in msp:
                continue
            try:
                return msp.get(principal).decrypt(bytes.fromhex(sealed))
            except DecryptionError:
                continue
        return None

    def assert_atomicity(self) -> None:
        """Every 2PC transaction decided on this chain is all-or-nothing
        on its registered participants (``assert_atomic``)."""
        try:
            assert_atomic(self.network)
        except TwoPhaseCommitError as exc:
            raise InvariantViolationError(f"atomicity violation: {exc}") from exc

    def check(self) -> None:
        """The full post-heal safety check."""
        self.assert_exactly_once()
        self.assert_ordering_integrity()
        self.assert_convergence()
        self.assert_durability()
        self.assert_isolation()
        self.assert_views()
        self.assert_atomicity()
