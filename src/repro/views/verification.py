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
dominate; local crypto is cheap) that the Fig 12 benchmark reads:
:data:`LEDGER_ACCESS_MS` per ledger fetch, :data:`LOCAL_CHECK_MS` per
local check.  Every audit is one fresh fold; its report costs the whole
audit, which is the quantity Fig 12 plots.
"""

from __future__ import annotations

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


#: Simulated cost of one ledger fetch and of one local check (ms) — the
#: paper observes that "most of the delay is due to access to the
#: ledger, while local computations only slightly increase the delay"
#: (Fig 12).
LEDGER_ACCESS_MS = 4.0
LOCAL_CHECK_MS = 0.1


def view_fold(peer, predicate: Predicate, upto_time=None):
    """The expected set of a view, folded from ``peer``'s chain.

    Yields, per block in chain order and up to the first block stamped
    later than ``upto_time``: the block, its VALID ``invoke``
    transactions, and the ids of those whose ``nonsecret["public"]``
    satisfies ``predicate``.
    """
    codes = peer.validation_codes
    for block in peer.chain:
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


def _cost_ms(accesses: int, local: int) -> float:
    return accesses * LEDGER_ACCESS_MS + local * LOCAL_CHECK_MS


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


class ViewVerifier:
    """Reader-side soundness/completeness verification through
    ``gateway`` (ledger access for the verifying user)."""

    def __init__(self, gateway: Gateway):
        self.gateway = gateway

    @property
    def _peer(self):
        return self.gateway.network.reference_peer

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
        expensive check (Fig 12).
        """
        violations: list[str] = []
        accesses = 0
        local = 0
        for tid, secret in result.secrets.items():
            accesses += 1
            try:
                tx = self._peer.chain.get_transaction(tid)
            except TransactionNotFoundError:
                violations.append(tid)
                continue
            public = tx.nonsecret.get("public", {})
            local += 1
            valid = self._peer.validation_codes.get(tid) is ValidationCode.VALID
            if not (valid and predicate.matches(public)):
                violations.append(tid)  # case 1: does not belong in the view
                continue
            local += 1
            if not conceals(tx, concealment, secret, result.tx_keys.get(tid)):
                violations.append(tid)  # case 2: corrupted data or key
        return VerificationReport(
            check="soundness",
            view=view_name,
            ok=not violations,
            checked=len(result.secrets),
            violations=violations,
            ledger_accesses=accesses,
            cost_ms=_cost_ms(accesses, local),
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
        scanned, at one (amortised) access per block.
        """
        if use_txlist:
            expected = set(
                self.gateway.query(
                    TXLIST_CHAINCODE, "get_list", {"view": view_name}
                )
            )
            accesses = 1
            local = len(expected)
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
            cost_ms=_cost_ms(accesses, local),
        )
