"""A revocable hash-based view layered over a private data collection.

The paper's Fig 13 compares three configurations; this module realises
the middle one — "a revocable view on top of private data collection,
by including our soundness and completeness tests".  Concealment and
serving work exactly like :class:`HashBasedManager` (the hash-based
methods are deliberately PDC-compatible: both put ``h(t[S] ‖ s)`` on
the ledger), but the plaintext secret is *also* disseminated into a
Fabric private data collection, so members of the collection's
organizations can read it through the ordinary PDC side-database path
while view readers keep the owner-served, key-managed path with
revocation and verification on top.
"""

from __future__ import annotations

from repro.fabric.network import Gateway
from repro.fabric.private_data import PrivateDataManager
from repro.views.hash_based import HashBasedManager
from repro.views.secret import ProcessedSecret


class PDCBackedHashManager(HashBasedManager):
    """HashBasedManager whose data plane is a private data collection."""

    def __init__(
        self,
        gateway: Gateway,
        pdc: PrivateDataManager,
        collection: str,
        **manager_kwargs,
    ):
        super().__init__(gateway, **manager_kwargs)
        self.pdc = pdc
        self.collection = collection
        # Fail fast if the collection was never defined.
        pdc.collection(collection)

    def _after_commit(self, tid: str, processed: ProcessedSecret) -> None:
        """Disseminate the plaintext to the collection's side stores.

        This is the PDC data plane: member-org peers hold the secret,
        the ledger holds only the salted hash (which our concealment
        already produced, so the on-chain footprint is identical to a
        plain PDC transaction).
        """
        for store in self.pdc.collection(self.collection).side_stores.values():
            store[tid] = processed.plaintext

    def read_via_pdc(self, requester, tid: str) -> bytes:
        """Member-org read path: straight from a side store, validated
        against the on-chain hash — no view owner involved."""
        return self.pdc.read_private(requester, self.collection, tid)
