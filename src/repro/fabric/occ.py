"""Commit policy: abort-on-conflict vs. OCC rebase.

What a peer does when commit-time MVCC validation finds that a
transaction's read set no longer matches current state:

``reference`` (default)
    Fabric's first-committer-wins rule, preserved verbatim from the
    seed: the transaction is stamped ``MVCC_CONFLICT`` and its writes
    are discarded — all the endorsement work is thrown away.

``occ``
    Validation-time *rebase*, after Meir et al., "Lockless Transaction
    Isolation in Hyperledger Fabric" (PAPERS.md): instead of aborting,
    the peer re-executes the transaction's chaincode simulation against
    the updated state (earlier in-block writes included), and — when
    the re-execution reaches the *same business outcome* — commits the
    rebased write set under the transaction's original position.  The
    transaction still aborts when:

    - re-execution raises :class:`~repro.errors.ChaincodeError` (the
      business rule genuinely no longer holds — e.g. a transferred
      item's holder moved, a grant was revoked);
    - the re-executed response changes *shape* (see
      :func:`business_outcome_changed`) or the write key set changes —
      the client endorsed one effect and would silently get another;
    - no re-simulation record is known for the transaction (a foreign
      transaction replayed without its proposal context);
    - the per-transaction rebase budget (``max_rebase_attempts``) is
      exhausted without a consistent re-execution.

Endorsement-policy note: a rebased write set is not the one the
original endorsers signed.  The model here is the deterministic-
re-endorsement argument from the paper above: chaincode execution is a
pure function of (function, args, committed state), and every endorsing
peer holds the identical committed state at the rebase point, so each
original endorser would re-derive — and re-sign — exactly the rebased
rwset.  The original endorsements are therefore still verified against
the original rwset (proving the endorsers executed this proposal), and
the rebase itself is the deterministic re-execution every endorser
would perform.  ``DESIGN.md`` §Backend matrix documents the rule and
its limits.

Selection: ``NetworkConfig.commit_backend``, else the
``REPRO_COMMIT_BACKEND`` environment variable, else ``reference`` —
rebasing changes *observable semantics* under contention, so it is
opt-in.  :func:`repro.fabric.config.resolve_backends` reads the choice
once per network; the network hands the policy to its peers.

On conflict-free workloads the two backends are byte-identical — same
blocks, tips, state roots, validation codes, and audit verdicts
(``tests/fabric/test_occ_backend.py`` pins this); under contention the
occ backend turns aborts into commits, which is exactly the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class CommitBackend:
    """One selectable commit-time conflict policy."""

    name: str
    #: Whether MVCC-conflicted transactions are re-executed against the
    #: updated state and committed when the business outcome holds.
    rebase_conflicts: bool
    #: Re-execution budget per conflicted transaction.  Within one
    #: block's validation the state does not change under the rebase
    #: (the loop itself is the only writer), so a deterministic
    #: chaincode converges on the first attempt; the budget bounds
    #: pathological (non-deterministic) chaincodes instead of looping.
    max_rebase_attempts: int = 1


#: name -> policy; the names are what ``commit_backend`` /
#: ``REPRO_COMMIT_BACKEND`` accept.
COMMIT_BACKENDS: dict[str, CommitBackend] = {
    "occ": CommitBackend("occ", rebase_conflicts=True, max_rebase_attempts=2),
    "reference": CommitBackend("reference", rebase_conflicts=False),
}


# -- re-simulation records -----------------------------------------------------


@dataclass(frozen=True)
class ResimRecord:
    """What a peer needs to re-execute one transaction's simulation.

    Committed transactions do not carry their chaincode *arguments* —
    only the derived rwset — so rebasing needs the original proposal
    context.  The network records one of these per submitted
    transaction (keyed by tid) and shares the index with its peers;
    changing the transaction bytes instead would break byte-identity
    with the reference backend on conflict-free workloads.
    """

    chaincode: str
    fn: str
    args: dict[str, Any] = field(default_factory=dict)
    creator: str = ""
    #: The endorsement-time response — the business outcome the client
    #: observed and the yardstick the rebase compares against.
    response: Any = None


def business_outcome_changed(original: Any, rebased: Any) -> bool:
    """Whether a re-execution changed the *shape* of the business outcome.

    A rebase is only sound when the client would have accepted the
    re-executed result as "the same operation, applied later": the
    response type must match, and for the common dict-shaped responses
    the key set must match.  Value drift is expected and allowed —
    rebasing a counter bump past another bump changes the count, that
    is the point — but a response that changes type or grows/loses
    fields means the chaincode took a different branch, and the
    endorsed effect is not what would commit.  Conservative by design:
    anything not clearly shape-equal aborts.
    """
    if type(original) is not type(rebased):
        return True
    if isinstance(original, dict):
        return set(original) != set(rebased)
    if isinstance(original, (list, tuple)):
        return len(original) != len(rebased)
    return False
