"""ViewBuffer: the view owner's off-chain bookkeeping (paper §5.3).

Holds, per view: the current view key ``K_V`` and its rotation count,
the ordered transaction-id list ``V_ids``, the per-transaction data the
manager needs to serve queries (transaction keys for encryption-based
views, secret plaintexts for hash-based views), the current access
list used for revocable grant/revoke, and the entries already served
under the current ``K_V``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.crypto.symmetric import SymmetricKey
from repro.errors import DuplicateViewError, ViewNotFoundError
from repro.views.predicates import Predicate
from repro.views.types import ViewMode


@dataclass
class ViewRecord:
    """Owner-side state of one view."""

    name: str
    predicate: Predicate
    mode: ViewMode
    key: SymmetricKey = field(repr=False)
    #: Incremented on every revocation-driven key rotation.
    key_version: int = 0
    #: ``V_ids`` — transaction ids in insertion order.
    tids: list[str] = field(default_factory=list)
    #: Method-specific per-transaction data (keys or plaintexts).
    data: dict[str, Any] = field(default_factory=dict, repr=False)
    #: Currently authorized principals: user or role id → public key.
    authorized: dict[str, Any] = field(default_factory=dict, repr=False)
    #: Principals granted over a secure channel: authorized, but named
    #: in no ``view-access`` transaction until the next one is published.
    offchain: set[str] = field(init=False, default_factory=set, repr=False)
    #: ``(K_V, {tid: (buffered data, hex of enc(entry, K_V))})`` — what
    #: queries have served under ``key``; see :meth:`served_entries`.
    _served: tuple[Any, dict[str, tuple[Any, str]]] = field(
        init=False, default_factory=lambda: (None, {}), repr=False, compare=False
    )

    def contains(self, tid: str) -> bool:
        return tid in self.data

    def served_entries(self) -> dict[str, tuple[Any, str]]:
        """The encrypted entries served under the current ``K_V``.

        The cache is bound to the key object: a rotated (or reassigned)
        ``key`` starts an empty one, so no entry outlives its key.
        """
        key, entries = self._served
        if key is not self.key:
            entries = {}
            self._served = (self.key, entries)
        return entries


class ViewBuffer:
    """All views managed by one view owner."""

    def __init__(self):
        self._views: dict[str, ViewRecord] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def __len__(self) -> int:
        return len(self._views)

    def add(self, record: ViewRecord) -> None:
        if record.name in self._views:
            raise DuplicateViewError(f"view {record.name!r} already exists")
        self._views[record.name] = record

    def get(self, name: str) -> ViewRecord:
        record = self._views.get(name)
        if record is None:
            raise ViewNotFoundError(f"no view named {name!r}")
        return record

    def names(self) -> list[str]:
        return sorted(self._views)

    def all_views(self) -> list[ViewRecord]:
        return [self._views[name] for name in self.names()]

    def matching(self, nonsecret: dict[str, Any]) -> list[ViewRecord]:
        """Views whose predicate accepts ``t[N]`` (insertion-stable order)."""
        return [v for v in self._views.values() if v.predicate.matches(nonsecret)]
