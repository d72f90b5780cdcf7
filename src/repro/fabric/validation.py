"""Block-validation work shared across a block's replicas.

:class:`BlockValidationMemo` lets the peers validating one block
(:meth:`repro.fabric.peer.Peer.validate_and_commit`) compute its pure
checks and same-tip MVCC verdicts once.  A lone validation (catch-up,
genesis replay) takes a fresh memo, so there is one MVCC fold.

It is pure memoisation: a replica that reuses a memo reaches the codes,
writes and state root a fresh one gives
(``tests/fabric/test_validation_differential.py``).  That the fold is a
correct execution is :meth:`repro.faults.InvariantMonitor
.assert_isolation`'s check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class BlockValidationMemo:
    """Per-block validation results, shared across a block's peers.

    Endorsement-policy verification and read/write-set parsing depend
    only on the transaction bytes and the channel's key material —
    never on a peer's state database — so every peer validating the
    same block computes identical results.  The network hands one memo
    to all of a block's deliveries: the first peer fills it, the rest
    reuse it.

    MVCC verdicts *do* read the state database, but a peer's state is a
    deterministic fold of its chain: two peers whose chains end in the
    same tip hash hold identical state, and therefore compute identical
    verdicts for the same block.  The first peer's verdicts are stored
    together with the tip hash they were computed against
    (:attr:`codes` / :attr:`codes_tip`); a later peer reuses them only
    when its own tip hash matches, and falls back to computing its own
    otherwise — so the sharing is a pure memoisation, never a change in
    behaviour.

    Sharing the parsed write sets means peers store the same decoded
    value objects; state values are already immutable-once-written by
    the :class:`~repro.ledger.statedb.StateDatabase` contract, so the
    aliasing is unobservable.
    """

    #: tid -> endorsement policy satisfied.
    endorsement_ok: dict[str, bool] = field(default_factory=dict)
    #: tid -> (read_set, write_set) parsed once per block.
    rwsets: dict[str, tuple[dict, dict]] = field(default_factory=dict)
    #: tid -> validation code, as computed by the first peer (valid
    #: only for peers whose chain tip equals :attr:`codes_tip`).
    codes: dict[str, Any] | None = None
    #: tid -> rebased write set, for transactions the occ commit
    #: backend re-executed instead of aborting.  Stored together with
    #: (and guarded by the same tip hash as) :attr:`codes`: a replica
    #: reusing the verdicts must apply these writes, not the
    #: endorsement-time ones in :attr:`rwsets`.  Rebasing is
    #: deterministic in (chain tip, block), so equal tips imply equal
    #: rebased write sets — the same argument that makes the codes
    #: shareable.
    rebased: dict[str, dict] = field(default_factory=dict)
    #: Chain-tip hash the stored verdicts were computed against.
    codes_tip: bytes | None = None
    #: Whether the block's internal structure (tx count, Merkle root)
    #: has been verified; pure in the block bytes, so once per block.
    structure_checked: bool = False
    #: Cached ``block.size_bytes``.
    block_size: int | None = None
    #: The block's transactions in canonical encoding, as a WAL block
    #: record stores them; set by the network when nodes log to durable
    #: stores, so the orderer's record and every replica's share one
    #: encoding.  The memo dies with the block's deliveries, so the
    #: bytes are not retained.
    wal_txs: list[str] | None = None

    def admit(self, block) -> int:
        """Structure-check ``block`` once for all replicas; return its size.

        ``Block.validate_structure`` (a Merkle rebuild over the
        transactions' leaf digests) and ``Block.size_bytes`` depend
        only on the block object, which all of a block's deliveries
        share — so the first replica pays for them and the rest reuse
        the results.  A malformed block still raises, on the first
        replica to see it.
        """
        if not self.structure_checked:
            block.validate_structure()
            self.block_size = block.size_bytes
            self.structure_checked = True
        return self.block_size

    def verdicts_for(self, tip_hash: bytes) -> dict[str, Any] | None:
        """Stored verdicts if they apply to a chain ending at ``tip_hash``."""
        if self.codes is not None and self.codes_tip == tip_hash:
            return self.codes
        return None

    def store_verdicts(
        self,
        tip_hash: bytes,
        codes: dict[str, Any],
        rebased: dict[str, dict] | None = None,
    ) -> None:
        """Record the first replica's verdicts and their pre-state tip."""
        if self.codes is None:
            self.codes = dict(codes)
            self.rebased = dict(rebased or {})
            self.codes_tip = tip_hash

