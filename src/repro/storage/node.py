"""Per-node durability: commit-path logging and crash recovery.

One :class:`NodeStore` owns one node's WAL plus its snapshot directory
and implements the two halves of the durability contract:

**Commit path** (called from ``Peer.validate_and_commit``): after a
block's writes are applied in memory, :meth:`NodeStore.log_block`
appends one WAL record — the serialized block, its per-transaction
validation codes, and its size — and fsyncs it; every
``snapshot_interval`` blocks :meth:`write_snapshot_for` checkpoints the
state database.  Commit order is *apply in memory, then WAL, then
ack*: a crash between apply and the WAL append loses both together
(process memory dies with the process), so the durable state is always
a consistent prefix, and the lost suffix is re-fetched from healthy
peers via the ordinary catch-up path.

**Recovery path** (:meth:`NodeStore.recover_peer`): replay the WAL,
truncating a torn/corrupt tail; rebuild the chain structurally from
every intact record (``prevalidated`` append — one hash-link check per
block, no signature or MVCC re-execution); load the newest verified
snapshot and apply *state* writes only for blocks past its height.
State application re-derives write sets from the logged transactions'
rwsets (only VALID codes apply), so the rebuilt state database, version
stamps, digest root, and validation codes are byte-identical to the
pre-crash ones — no re-validation, which is what makes restart cost
scale with the delta since the last checkpoint instead of chain
length.  A snapshot whose anchors contradict the log is discarded in
favour of full WAL replay; with no usable store at all the caller
falls back to the legacy genesis re-validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import StorageError
from repro.ledger.block import Block, BlockHeader
from repro.ledger.statedb import Version
from repro.ledger.transaction import Transaction
from repro.storage import snapshot as snapshot_io
from repro.storage.crashpoints import CrashPointGuard
from repro.storage.fs import DiskFilesystem, Filesystem, MemoryFilesystem
from repro.storage.owner import OwnerStore
from repro.storage.wal import WriteAheadLog


def header_to_dict(header: BlockHeader) -> dict[str, Any]:
    """The JSON form of a block header inside a WAL block record."""
    return {
        "number": header.number,
        "previous_hash": header.previous_hash.hex(),
        "tx_root": header.tx_root.hex(),
        "state_root": header.state_root.hex(),
        "timestamp": header.timestamp,
        "tx_count": header.tx_count,
    }


def header_from_dict(body: dict[str, Any]) -> BlockHeader:
    """Inverse of :func:`header_to_dict`."""
    return BlockHeader(
        number=body["number"],
        previous_hash=bytes.fromhex(body["previous_hash"]),
        tx_root=bytes.fromhex(body["tx_root"]),
        state_root=bytes.fromhex(body["state_root"]),
        timestamp=body["timestamp"],
        tx_count=body["tx_count"],
    )


@dataclass
class RecoveryReport:
    """What one store-based restart actually did."""

    node_id: str
    #: "snapshot+wal" (checkpoint + suffix), "wal-replay" (no usable
    #: checkpoint; full log re-applied), or "empty" (nothing durable).
    mode: str
    #: Height covered by the checkpoint used (0 when none).
    snapshot_height: int
    #: Blocks structurally re-appended from the WAL (whole log).
    chain_blocks_loaded: int
    #: Blocks whose state writes were re-applied — the delta-scaling
    #: metric: bounded by work since the last checkpoint.
    state_blocks_replayed: int
    #: Blocks re-run through full validation (0 on every store path;
    #: the legacy genesis fallback counts its whole chain here).
    revalidated_blocks: int
    #: Whether a torn/corrupt WAL tail was detected and truncated.
    torn_tail: bool
    #: Durable WAL end offset after tail repair.
    wal_end_offset: int
    #: Blocks re-fetched from the ordered log afterwards (set by
    #: ``repro.faults.recovery.recover_peer``).
    refetched_blocks: int = 0


class NodeStore:
    """Durable WAL + snapshots for one peer or orderer."""

    def __init__(
        self,
        fs: Filesystem,
        root: str,
        node_id: str,
        snapshot_interval: int = 25,
    ):
        self.fs = fs
        self.node_id = node_id
        self.root = f"{root}/{node_id}"
        self.snapshot_interval = snapshot_interval
        #: Crash-point counter shared by every durable op of this node.
        self.guard = CrashPointGuard()
        self.wal = WriteAheadLog(fs, f"{self.root}/wal.log", guard=self.guard)
        self.records_logged = 0
        self.snapshots_written = 0
        self.torn_tails_truncated = 0
        self.recoveries = 0

    # -- commit path ---------------------------------------------------------

    def log_block(
        self,
        block: Block,
        codes: dict | None = None,
        rebased: dict[str, dict] | None = None,
        txs: list[str] | None = None,
    ) -> None:
        """Append one committed (or ordered) block to the WAL.

        ``txs`` is the block's transactions in canonical encoding when
        the caller already holds them (one block is logged by the
        orderer and by every replica); otherwise they are encoded here.

        ``rebased`` maps tids the occ commit backend rebased to the
        write sets that actually committed; they must be replayed in
        place of the endorsement-time rwsets embedded in the block.
        The field is omitted when empty, so reference-backend WALs stay
        byte-identical to the pre-occ format.
        """
        if txs is None:
            txs = [tx.serialize().decode("utf-8") for tx in block.transactions]
        elif len(txs) != len(block.transactions):
            raise StorageError(
                f"block {block.number}: {len(txs)} encoded transactions "
                f"supplied for {len(block.transactions)}"
            )
        payload: dict[str, Any] = {
            "kind": "block",
            "header": header_to_dict(block.header),
            "txs": txs,
            "size": block.size_bytes,
        }
        if codes is not None:
            payload["codes"] = {tid: code.value for tid, code in codes.items()}
        if rebased:
            payload["rebased"] = {
                tid: [
                    [key, _encode_value(value)]
                    for key, value in sorted(write_set.items())
                ]
                for tid, write_set in rebased.items()
            }
        self.wal.append(payload)
        self.records_logged += 1

    def log_record(self, payload: dict[str, Any]) -> None:
        """Append one arbitrary tagged record to the WAL.

        ``payload["kind"]`` must be set (and must not be "block", which
        is reserved for :meth:`log_block` so chain recovery never
        confuses consensus metadata with ledger contents).  Used by the
        pbft backend to WAL its per-view log and commit certificates.
        """
        kind = payload.get("kind")
        if not kind or kind == "block":
            raise StorageError(
                f"log_record needs a non-'block' kind; got {kind!r}"
            )
        self.wal.append(payload)
        self.records_logged += 1

    def replay_kind(self, kind: str) -> list[dict[str, Any]]:
        """All intact WAL records of one kind, in append order."""
        replay = self.wal.replay(0)
        if replay.torn:
            self.wal.truncate_to(replay.end_offset)
            self.torn_tails_truncated += 1
        return [
            record for record in replay.records if record.get("kind") == kind
        ]

    def snapshot_due(self, height: int) -> bool:
        return (
            self.snapshot_interval > 0
            and height > 0
            and height % self.snapshot_interval == 0
        )

    def write_snapshot_for(self, peer) -> None:
        """Checkpoint ``peer``'s world state as of its current height."""
        state = [
            [key, _encode_value(entry.value), entry.version.block, entry.version.position]
            for key, entry in peer.statedb.entries()
        ]
        snapshot_io.write_snapshot(
            self.fs,
            self.root,
            height=peer.chain.height,
            wal_offset=self.wal.size(),
            tip_hash=peer.chain.tip_hash,
            state_root=peer.current_state_root(),
            state=state,
            guard=self.guard,
        )
        self.snapshots_written += 1

    # -- recovery path -------------------------------------------------------

    def _decode_block(self, record: dict[str, Any]) -> Block:
        return Block(
            header=header_from_dict(record["header"]),
            transactions=tuple(
                Transaction.deserialize(raw.encode("utf-8"))
                for raw in record["txs"]
            ),
        )

    def replay_blocks(self) -> tuple[list[dict[str, Any]], list[Block], bool, int]:
        """Scan the WAL: (records, decoded blocks, torn?, end offset).

        A torn or corrupt tail is truncated here, so subsequent appends
        continue from the last intact record.
        """
        replay = self.wal.replay(0)
        if replay.torn:
            self.wal.truncate_to(replay.end_offset)
            self.torn_tails_truncated += 1
        records = [
            record for record in replay.records if record.get("kind") == "block"
        ]
        blocks = [self._decode_block(record) for record in records]
        return records, blocks, replay.torn, replay.end_offset

    def recover_peer(self, peer) -> RecoveryReport:
        """Rebuild ``peer`` from this store; see the module docstring.

        The peer's in-memory containers are discarded first: recovery
        reconstructs exactly what was durable, which after a mid-commit
        crash may be *behind* the pre-crash memory — the gap is
        re-fetched by the caller through block catch-up.
        """
        self.recoveries += 1
        records, blocks, torn, end_offset = self.replay_blocks()
        checkpoint = snapshot_io.load_latest(self.fs, self.root)
        peer.reset_world_state()

        state_from = 0
        snapshot_height = 0
        mode = "wal-replay" if blocks else "empty"
        if (
            checkpoint is not None
            and len(blocks) >= checkpoint.height
            and (
                checkpoint.height == 0
                or blocks[checkpoint.height - 1].hash() == checkpoint.tip_hash
            )
        ):
            for record, block in zip(
                records[: checkpoint.height], blocks[: checkpoint.height]
            ):
                peer.apply_recovered_block(
                    block,
                    _decode_codes(record),
                    size_bytes=record["size"],
                    apply_state=False,
                    rebased=_decode_rebased(record),
                )
            for key, encoded, vblock, vposition in checkpoint.state:
                peer.statedb.put(
                    key, _decode_value(encoded), Version(vblock, vposition)
                )
            if peer.current_state_root() == checkpoint.state_root:
                mode = "snapshot+wal"
                snapshot_height = checkpoint.height
                state_from = checkpoint.height
            else:
                # The checkpoint contradicts the log it claims to cover
                # (tampering or latent corruption the checksum missed):
                # discard it and rebuild state purely from records.
                peer.reset_world_state()

        for record, block in zip(records[state_from:], blocks[state_from:]):
            peer.apply_recovered_block(
                block,
                _decode_codes(record),
                size_bytes=record["size"],
                apply_state=True,
                rebased=_decode_rebased(record),
            )
        return RecoveryReport(
            node_id=self.node_id,
            mode=mode,
            snapshot_height=snapshot_height,
            chain_blocks_loaded=len(blocks),
            state_blocks_replayed=len(blocks) - state_from,
            revalidated_blocks=0,
            torn_tail=torn,
            wal_end_offset=end_offset,
        )

    def counters(self) -> dict[str, int]:
        return {
            "records_logged": self.records_logged,
            "snapshots_written": self.snapshots_written,
            "torn_tails_truncated": self.torn_tails_truncated,
            "recoveries": self.recoveries,
            "wal_bytes": self.wal.size(),
            "durable_ops": self.guard.op_count,
        }


class StorageRuntime:
    """One network's durability: a filesystem plus per-node stores."""

    def __init__(
        self,
        fs: Filesystem,
        chain_name: str = "main",
        snapshot_interval: int = 25,
    ):
        self.fs = fs
        self.chain_name = chain_name
        self.snapshot_interval = snapshot_interval
        self._stores: dict[str, NodeStore] = {}
        self._owner_stores: dict[str, OwnerStore] = {}

    @classmethod
    def from_config(
        cls, config, chain_name: str, backend: str
    ) -> "StorageRuntime":
        """Build a runtime on the "memory" or "disk" medium.

        ``backend`` is what
        :func:`repro.fabric.config.resolve_backends` made of
        ``config.storage_backend`` / ``REPRO_STORAGE_BACKEND``; a
        network whose resolved medium is ``None`` builds no runtime.
        """
        fs: Filesystem = (
            DiskFilesystem(config.storage_dir)
            if backend == "disk"
            else MemoryFilesystem()
        )
        return cls(
            fs,
            chain_name=chain_name,
            snapshot_interval=config.snapshot_interval_blocks,
        )

    def node_store(self, node_id: str) -> NodeStore:
        store = self._stores.get(node_id)
        if store is None:
            store = NodeStore(
                self.fs,
                self.chain_name,
                node_id,
                snapshot_interval=self.snapshot_interval,
            )
            self._stores[node_id] = store
        return store

    def attach_peer(self, peer) -> None:
        peer.attach_store(self.node_store(peer.peer_id))

    def owner_store(self, owner_id: str) -> OwnerStore:
        store = self._owner_stores.get(owner_id)
        if store is None:
            store = OwnerStore(self.fs, self.chain_name, owner_id)
            self._owner_stores[owner_id] = store
        return store

    # -- orderer block log ---------------------------------------------------

    @property
    def orderer_store(self) -> NodeStore:
        """The ordering service's WAL (blocks only, no validation codes)."""
        return self.node_store(f"{self.chain_name}-orderer")

    def log_ordered_block(self, block: Block, txs: list[str] | None = None) -> None:
        self.orderer_store.log_block(block, txs=txs)

    @property
    def pbft_store(self) -> NodeStore:
        """The pbft cluster's WAL (per-view log + commit certificates)."""
        return self.node_store(f"{self.chain_name}-pbft")

    def restore_block_log(self) -> list[Block]:
        """Rebuild the ordered block log from the orderer's WAL."""
        _records, blocks, _torn, _end = self.orderer_store.replay_blocks()
        return blocks

    def summary(self) -> dict[str, Any]:
        return {
            "backend": self.fs.name,
            "snapshot_interval": self.snapshot_interval,
            "nodes": {
                node_id: store.counters()
                for node_id, store in sorted(self._stores.items())
            },
            "owners": {
                owner_id: store.counters()
                for owner_id, store in sorted(self._owner_stores.items())
            },
        }


def verify_restart(network, peer) -> RecoveryReport:
    """The durability invariant, checked by actually restarting.

    Builds a *shadow* replica of ``peer`` purely from its durable store
    (snapshot + WAL suffix), catches it up from the ordered block log,
    and asserts byte-identity with the live peer — tip hash, full world
    state with versions, validation codes, and state root.  Any
    committed block or flushed TLC batch lost by the storage layer
    shows up here as a divergence.

    Raises :class:`~repro.errors.StorageError` on mismatch; the
    :class:`~repro.faults.InvariantMonitor` wraps that into an
    invariant violation.
    """
    from repro.faults.recovery import catch_up

    store = peer.store
    if store is None:
        raise StorageError(f"peer {peer.peer_id} has no store attached")
    # Catch-up re-validates missing blocks from scratch, so the shadow
    # shares the live peer's re-simulation records — rebases must
    # replay identically or the byte-identity checks below fail.
    shadow = peer.empty_replica()
    report = store.recover_peer(shadow)
    # The shadow has no store of its own, so catch-up commits do not
    # append duplicate records to the live peer's WAL.
    report.refetched_blocks = catch_up(network, shadow)

    def mismatch(what: str) -> StorageError:
        return StorageError(
            f"durability violation at {peer.peer_id}: restarted replica "
            f"diverges from live peer in {what} "
            f"(recovery mode {report.mode!r}, "
            f"snapshot height {report.snapshot_height})"
        )

    if shadow.chain.height != peer.chain.height:
        raise mismatch(
            f"chain height ({shadow.chain.height} != {peer.chain.height})"
        )
    if shadow.chain.tip_hash != peer.chain.tip_hash:
        raise mismatch("tip hash")
    if shadow.validation_codes != peer.validation_codes:
        raise mismatch("validation codes")
    if {k: e for k, e in shadow.statedb.entries()} != {
        k: e for k, e in peer.statedb.entries()
    }:
        raise mismatch("world state (values or versions)")
    if shadow.current_state_root() != peer.current_state_root():
        raise mismatch("state root")
    return report


def _encode_value(value: Any):
    from repro.fabric.endorser import encode_value

    return encode_value(value)


def _decode_value(encoded: Any):
    from repro.fabric.endorser import decode_value

    return decode_value(encoded)


def _decode_codes(record: dict[str, Any]) -> dict:
    from repro.fabric.peer import ValidationCode

    return {
        tid: ValidationCode(value)
        for tid, value in record.get("codes", {}).items()
    }


def _decode_rebased(record: dict[str, Any]) -> dict:
    """Rebased write sets logged with the block (occ backend), if any."""
    return {
        tid: {key: _decode_value(encoded) for key, encoded in pairs}
        for tid, pairs in record.get("rebased", {}).items()
    }
