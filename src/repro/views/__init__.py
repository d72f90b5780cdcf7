"""Access-control views — the paper's primary contribution.

Four view methods over transactions with secret parts:

- ``EI`` — encryption-based, irrevocable (§4.1)
- ``ER`` — encryption-based, revocable (§4.2)
- ``HI`` — hash-based, irrevocable (§4.3)
- ``HR`` — hash-based, revocable (§4.4)

plus role-based access control on top of any of them (§4.6), and
verifiable soundness/completeness for all of them (§4.7).

The entry point is a view manager —
:class:`~repro.views.encryption_based.EncryptionBasedManager` or
:class:`~repro.views.hash_based.HashBasedManager` — owned by a *view
owner* and attached to a Fabric gateway.  Readers use
:class:`~repro.views.manager.ViewReader`.
"""

from repro.views.encryption_based import EncryptionBasedManager
from repro.views.hash_based import HashBasedManager
from repro.views.manager import QueryResult, ViewManager, ViewReader
from repro.views.predicates import (
    AllOf,
    AnyOf,
    AttributeEquals,
    AttributeIn,
    Everything,
    Not,
    Predicate,
    predicate_from_descriptor,
)
from repro.views.rbac import RBACAuthority, Role
from repro.views.state_proofs import StateProofService, ViewEntryProof
from repro.views.types import Concealment, ViewMode
from repro.views.unmaintained import UnmaintainedView
from repro.views.verification import ViewVerifier

__all__ = [
    "ViewMode",
    "Concealment",
    "ViewManager",
    "ViewReader",
    "QueryResult",
    "EncryptionBasedManager",
    "HashBasedManager",
    "Predicate",
    "AttributeEquals",
    "AttributeIn",
    "AllOf",
    "AnyOf",
    "Not",
    "Everything",
    "predicate_from_descriptor",
    "RBACAuthority",
    "Role",
    "ViewVerifier",
    "UnmaintainedView",
    "StateProofService",
    "ViewEntryProof",
]
