"""Pluggable commit backend: abort-on-conflict vs. OCC rebase.

The third backend dimension, after crypto (:mod:`repro.crypto.backend`)
and ledger (:mod:`repro.ledger.backend`).  It selects what a peer does
when commit-time MVCC validation finds that a transaction's read set
no longer matches current state:

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

Selection mirrors the other layers: process-wide default from the
``REPRO_COMMIT_BACKEND`` environment variable (``reference`` if unset
— rebasing changes *observable semantics* under contention, so unlike
the wall-clock-only backends it is opt-in), :func:`set_backend` /
:func:`use_backend` for programmatic switches, and
``NetworkConfig.commit_backend`` plus the bench harness's
``commit_backend=...`` / ``--commit`` knobs for per-network pinning.

On conflict-free workloads the two backends are byte-identical — same
blocks, tips, state roots, validation codes, and audit verdicts
(``tests/fabric/test_occ_backend.py`` pins this); under contention the
occ backend turns aborts into commits, which is exactly the point.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Environment variable naming the default backend.
BACKEND_ENV_VAR = "REPRO_COMMIT_BACKEND"


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


_BACKENDS: dict[str, CommitBackend] = {
    "occ": CommitBackend("occ", rebase_conflicts=True, max_rebase_attempts=2),
    "reference": CommitBackend("reference", rebase_conflicts=False),
}

_lock = threading.Lock()


def available_backends() -> list[str]:
    """Names accepted by :func:`set_backend`, sorted."""
    return sorted(_BACKENDS)


def _resolve(name: str) -> CommitBackend:
    backend = _BACKENDS.get(name)
    if backend is None:
        raise ValueError(
            f"unknown commit backend {name!r}; "
            f"expected one of {available_backends()}"
        )
    return backend


_active: CommitBackend = _resolve(
    os.environ.get(BACKEND_ENV_VAR, "reference")
)


def get_backend() -> CommitBackend:
    """The currently active backend."""
    return _active


def resolve_backend(name: str | None) -> CommitBackend:
    """``name`` resolved to a backend; ``None`` means the active one."""
    if name is None:
        return _active
    return _resolve(name)


def set_backend(name: str) -> CommitBackend:
    """Switch the process-wide backend; returns the new backend."""
    global _active
    backend = _resolve(name)
    with _lock:
        _active = backend
    return backend


@contextmanager
def use_backend(name: str) -> Iterator[CommitBackend]:
    """Temporarily switch backends within a ``with`` block."""
    previous = _active.name
    backend = set_backend(name)
    try:
        yield backend
    finally:
        set_backend(previous)


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
