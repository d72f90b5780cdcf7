"""Verifiable soundness and completeness of views (paper §4.7).

A malicious view owner can (1) include a transaction that does not
satisfy the view definition, (2) include a corrupted copy of a
transaction's data, or (3) silently omit a transaction.  A reader with
access to the view and the ledger can detect all three:

- **Soundness** — for every transaction served in the view: fetch it
  from the ledger, re-check the view predicate over its non-secret
  part, and check the served secret data against the on-chain
  concealment (salted hash, or decryptability of the ciphertext under
  the served key).
- **Completeness** — compare the served transaction set against the set
  that *should* be in the view as of time ``T``: either by scanning the
  whole ledger, or against the TxListContract's on-chain list (§5.4),
  which is much cheaper (one list fetch instead of one ledger access
  per transaction — the asymmetry measured in Fig 12).

What *should* be in a view is one fold, :func:`view_fold`: the VALID
``invoke`` transactions of the reference peer's chain, in chain order,
whose ``nonsecret["public"]`` satisfies the predicate.  A transaction
the peers rejected (an MVCC conflict, say) joins no view — the owner
does not buffer it and no reader expects it.  The verifier's scans,
:class:`~repro.views.unmaintained.UnmaintainedView` and the view oracle
:meth:`repro.faults.InvariantMonitor.assert_views` all call it; the
oracle finds its owners because every view manager registers itself
with its network.

The verifier also keeps a simulated-time cost model (ledger accesses
dominate; local crypto is cheap) that the Fig 12 benchmark reads.

Repeated audits of a growing ledger re-pay the full scan every time.
With ``incremental=True`` the verifier keeps per-(view, definition)
cursors so completeness resumes from the first unaudited block, and a
soundness result cache keyed by everything the verdict depends on.
Verdicts are identical to a fresh verifier's — the chain is append-only
and block timestamps are monotonic, so re-checking audited prefixes can
never change the outcome — only the amortised cost drops.  The one case
where "append-only" fails is a peer restart: a chain rebuilt from a
snapshot + WAL suffix is a *different object* that may expose different
contents at audited heights, so cursors anchor on the hash of the last
block they scanned and self-invalidate (full rescan, soundness cache
dropped) whenever that anchor no longer matches the chain.  The mode is
opt-in because the reported ``ledger_accesses``/``cost_ms`` then cover
just the *new* work, which is the quantity an amortised audit pays.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.crypto.hashing import verify_salted_hash
from repro.errors import (
    DecryptionError,
    TransactionNotFoundError,
    VerificationError,
)
from repro.fabric.network import Gateway
from repro.fabric.peer import ValidationCode
from repro.views.manager import QueryResult
from repro.views.predicates import Predicate
from repro.views.txlist_contract import CHAINCODE_NAME as TXLIST_CHAINCODE
from repro.views.types import Concealment


def view_fold(peer, predicate: Predicate, start: int = 0, upto_time=None):
    """The expected set of a view, folded from ``peer``'s chain.

    Yields, per block from ``start`` in chain order and up to the first
    block stamped later than ``upto_time``: the block, its VALID
    ``invoke`` transactions, and the ids of those whose
    ``nonsecret["public"]`` satisfies ``predicate``.
    """
    codes = peer.validation_codes
    for block in peer.chain.blocks_from(start):
        if upto_time is not None and block.header.timestamp > upto_time:
            return
        valid = [
            tx
            for tx in block.transactions
            if tx.kind == "invoke" and codes.get(tx.tid) is ValidationCode.VALID
        ]
        yield block, valid, [
            tx.tid
            for tx in valid
            if predicate.matches(tx.nonsecret.get("public", {}))
        ]


def conceals(tx, concealment: Concealment, secret: bytes | None, tx_key) -> bool:
    """Whether ``tx``'s on-chain concealment matches: ``secret`` against
    the salted hash, or ``tx_key`` decrypting the ciphertext (to
    ``secret``, unless that is None)."""
    if concealment is Concealment.HASH:
        return verify_salted_hash(secret, tx.salt, tx.concealed)
    if tx_key is None:
        return False
    try:
        plaintext = tx_key.decrypt(tx.concealed)
    except DecryptionError:
        return False
    return secret is None or plaintext == secret


@dataclass
class VerificationReport:
    """Outcome of one soundness or completeness check."""

    check: str  # "soundness" | "completeness"
    view: str
    ok: bool
    checked: int
    #: Soundness: tids that failed a predicate or concealment check.
    violations: list[str] = field(default_factory=list)
    #: Completeness: tids that should be in the view but were not served.
    missing: list[str] = field(default_factory=list)
    ledger_accesses: int = 0
    #: Simulated verification cost (ms) under the verifier's cost model.
    cost_ms: float = 0.0

    def assert_ok(self) -> None:
        """Raise :class:`VerificationError` if the check failed."""
        if self.ok:
            return
        problems = self.violations or self.missing
        raise VerificationError(
            f"{self.check} of view {self.view!r} failed: "
            f"{len(problems)} problem transaction(s): {problems[:5]}"
        )


@dataclass
class _CompletenessCursor:
    """Audit progress for one (view, definition) pair.

    ``timestamps``/``tids`` are parallel lists of every qualifying
    transaction found so far, in chain order.  Because block timestamps
    are monotonic non-decreasing, any ``upto_time`` horizon is a
    ``bisect_right`` over ``timestamps`` — no rescan needed.
    """

    next_block: int = 0
    timestamps: list[float] = field(default_factory=list)
    tids: list[str] = field(default_factory=list)
    #: Hash of the last block this cursor scanned.  The cursor's
    #: accumulated state is only valid for the chain that *contains*
    #: that block: a recovered peer that rebuilt its chain from a
    #: snapshot + WAL suffix may expose the same heights with different
    #: contents, so resumption is keyed on the tip hash, not on height.
    anchor_hash: bytes = b""

    def reset(self) -> None:
        self.next_block = 0
        self.timestamps.clear()
        self.tids.clear()
        self.anchor_hash = b""


class ViewVerifier:
    """Reader-side soundness/completeness verification.

    Parameters
    ----------
    gateway:
        Ledger access for the verifying user.
    ledger_access_ms / local_check_ms:
        Simulated cost per ledger fetch and per local computation —
        the paper observes that "most of the delay is due to access to
        the ledger, while local computations only slightly increase the
        delay" (Fig 12).
    incremental:
        Reuse audit work across calls on this verifier instance:
        completeness scans resume from the first unaudited block and
        soundness verdicts are cached per (definition, transaction,
        served data).  Verdicts are identical to ``incremental=False``;
        ``ledger_accesses``/``cost_ms`` report only the new work.
    """

    def __init__(
        self,
        gateway: Gateway,
        ledger_access_ms: float = 4.0,
        local_check_ms: float = 0.1,
        incremental: bool = False,
    ):
        self.gateway = gateway
        self.ledger_access_ms = ledger_access_ms
        self.local_check_ms = local_check_ms
        self.incremental = incremental
        self._completeness_cursors: dict[tuple[str, str], _CompletenessCursor] = {}
        #: Soundness verdicts keyed by every input the check depends on.
        #: Safe because a transaction, once found on the append-only
        #: chain, never changes; "tid not found" is never cached since a
        #: later block could still carry it.
        self._soundness_cache: dict[tuple, bool] = {}

    @property
    def _peer(self):
        return self.gateway.network.reference_peer

    @property
    def _chain(self):
        return self._peer.chain

    @staticmethod
    def _definition_key(view_name: str, predicate: Predicate) -> tuple[str, str]:
        return view_name, json.dumps(predicate.descriptor(), sort_keys=True)

    def _cursor_stale(self, cursor: _CompletenessCursor) -> bool:
        """Whether the chain the cursor audited is no longer a prefix
        of the chain being audited now.

        A fresh cursor is never stale.  Otherwise the block the cursor
        last scanned must still exist at the same height *with the same
        hash* — chain identity, not chain length: a peer restarted from
        snapshot + WAL suffix can come back shorter (durable prefix
        only) or, on a diverging rebuild, with different contents at
        audited heights.
        """
        if cursor.next_block == 0:
            return False
        chain = self._chain
        if chain.height < cursor.next_block:
            return True
        anchor = next(chain.blocks_from(cursor.next_block - 1))
        return anchor.hash() != cursor.anchor_hash

    # -- soundness ------------------------------------------------------------

    def verify_soundness(
        self,
        view_name: str,
        predicate: Predicate,
        result: QueryResult,
        concealment: Concealment,
    ) -> VerificationReport:
        """Check every served transaction against ledger and definition.

        Costs one ledger access per transaction — soundness is the
        expensive check (Fig 12).  An ``incremental`` verifier skips
        transactions whose verdict it already established for identical
        served data, so re-audits cost only the unseen tail.
        """
        violations: list[str] = []
        accesses = 0
        local = 0
        definition = self._definition_key(view_name, predicate)
        for tid, secret in result.secrets.items():
            cache_key = None
            if self.incremental:
                tx_key = result.tx_keys.get(tid)
                cache_key = (
                    definition,
                    tid,
                    bytes(secret),
                    concealment,
                    tx_key.material if tx_key is not None else None,
                )
                cached = self._soundness_cache.get(cache_key)
                if cached is not None:
                    if not cached:
                        violations.append(tid)
                    continue
            accesses += 1
            try:
                tx = self._chain.get_transaction(tid)
            except TransactionNotFoundError:
                violations.append(tid)
                continue
            public = tx.nonsecret.get("public", {})
            local += 1
            valid = self._peer.validation_codes.get(tid) is ValidationCode.VALID
            if not (valid and predicate.matches(public)):
                violations.append(tid)  # case 1: does not belong in the view
                if cache_key is not None:
                    self._soundness_cache[cache_key] = False
                continue
            local += 1
            sound = conceals(tx, concealment, secret, result.tx_keys.get(tid))
            if not sound:
                violations.append(tid)  # case 2: corrupted data or key
            if cache_key is not None:
                self._soundness_cache[cache_key] = sound
        return VerificationReport(
            check="soundness",
            view=view_name,
            ok=not violations,
            checked=len(result.secrets),
            violations=violations,
            ledger_accesses=accesses,
            cost_ms=accesses * self.ledger_access_ms + local * self.local_check_ms,
        )

    # -- completeness -------------------------------------------------------------

    def verify_completeness(
        self,
        view_name: str,
        predicate: Predicate,
        served_tids: set[str],
        upto_time: float | None = None,
        use_txlist: bool = False,
    ) -> VerificationReport:
        """Check that no qualifying transaction was omitted, as of ``T``.

        With ``use_txlist`` the expected set comes from the
        TxListContract (one ledger fetch); otherwise the whole ledger is
        scanned, at one (amortised) access per block.  An
        ``incremental`` verifier scans only blocks appended since its
        last completeness check of this (view, definition) pair.
        """
        if use_txlist:
            expected = set(
                self.gateway.query(
                    TXLIST_CHAINCODE, "get_list", {"view": view_name}
                )
            )
            accesses = 1
            local = len(expected)
        elif self.incremental:
            cursor = self._completeness_cursors.setdefault(
                self._definition_key(view_name, predicate), _CompletenessCursor()
            )
            if self._cursor_stale(cursor):
                # The audited prefix is no longer the chain's prefix
                # (the peer restarted and rebuilt its chain): every
                # cached conclusion below is about blocks that may no
                # longer exist, so rescan from genesis — and drop the
                # soundness verdicts too, since they cite the same
                # chain.
                cursor.reset()
                self._soundness_cache.clear()
            accesses = 0
            local = 0
            for block, valid, tids in view_fold(
                self._peer, predicate, start=cursor.next_block
            ):
                accesses += 1
                local += len(valid)
                cursor.timestamps.extend([block.header.timestamp] * len(tids))
                cursor.tids.extend(tids)
                cursor.next_block = block.number + 1
                cursor.anchor_hash = block.hash()
            if upto_time is None:
                expected = set(cursor.tids)
            else:
                # Identical to the reference break-at-first-late-block
                # scan because timestamps are monotonic non-decreasing.
                expected = set(
                    cursor.tids[: bisect_right(cursor.timestamps, upto_time)]
                )
        else:
            expected = set()
            accesses = 0
            local = 0
            for _block, valid, tids in view_fold(
                self._peer, predicate, upto_time=upto_time
            ):
                accesses += 1
                local += len(valid)
                expected.update(tids)
        missing = sorted(expected - served_tids)
        return VerificationReport(
            check="completeness",
            view=view_name,
            ok=not missing,
            checked=len(expected),
            missing=missing,
            ledger_accesses=accesses,
            cost_ms=accesses * self.ledger_access_ms + local * self.local_check_ms,
        )
