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
"""

from __future__ import annotations

from repro.errors import InvariantViolationError, LedgerError, StorageError


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

    def check(self) -> None:
        """The full post-heal safety check."""
        self.assert_exactly_once()
        self.assert_ordering_integrity()
        self.assert_convergence()
        self.assert_durability()

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
