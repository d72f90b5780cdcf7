"""Continuous safety assertions while faults are being injected.

The :class:`InvariantMonitor` watches a network for the properties that
must hold *regardless of timing*: every transaction id appears in the
ordered log exactly once (no retry may double-commit), the Raft group
never commits a block digest twice, replicas converge to one tip hash
and one world state once faults heal, audit verdicts match the
fault-free run of the same seed, and — when the network runs with a
durable storage backend — no committed block or state write is lost
across a restart (every peer's durable store must reproduce its live
replica byte-for-byte).  The per-block check runs inside the
block-event stream, so a violation aborts the run at the block that
introduced it rather than surfacing as a diff at the end.

Isolation is checked too: MVCC validation in block order makes the
valid transactions serializable in chain order (Meir et al.,
PAPERS.md), and ``assert_isolation`` re-derives that fold on its own —
the reference the peers' one validation loop is held to.
"""

from __future__ import annotations

from repro.errors import (
    ChaincodeError,
    InvariantViolationError,
    LedgerError,
    StorageError,
)
from repro.fabric.chaincode import TxContext
from repro.fabric.endorser import parse_rwset
from repro.fabric.peer import ValidationCode
from repro.ledger.statedb import StateDatabase, Version


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

    def check(self) -> None:
        """The full post-heal safety check."""
        self.assert_exactly_once()
        self.assert_ordering_integrity()
        self.assert_convergence()
        self.assert_durability()
        self.assert_isolation()

    @staticmethod
    def assert_audits_match(baseline: dict, observed: dict) -> None:
        """Audit verdicts must equal the fault-free run's, key by key."""
        if baseline != observed:
            drifted = sorted(
                key
                for key in set(baseline) | set(observed)
                if baseline.get(key) != observed.get(key)
            )
            raise InvariantViolationError(
                f"audit verdicts drifted from the fault-free run: {drifted}"
            )
