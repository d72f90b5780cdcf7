"""Private data collections (Fabric's built-in privacy feature, §2).

In a private data collection (PDC), the secret payload is disseminated
off-chain to the peers of authorized organizations and kept in a
per-peer *side database*; only ``h(payload || salt)`` goes through
ordering onto the ledger.  The paper compares its hash-based revocable
views against raw PDCs (Fig 13) and notes PDCs' limitations: the
*peers* of member orgs see the data (a problem when peers should not),
and access cannot be made irrevocable.

This module models a PDC on top of the simulated network: submission
conceals the payload exactly like the hash-based view methods, and
member peers store the plaintext in their side stores at commit time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import random_salt, salted_hash, verify_salted_hash
from repro.errors import AccessDeniedError, TransactionNotFoundError
from repro.fabric.endorser import Proposal
from repro.fabric.identity import User
from repro.fabric.network import FabricNetwork


@dataclass
class PrivateDataCollection:
    """One collection: its member organizations and per-peer side stores."""

    name: str
    member_orgs: set[str]
    #: peer id → (tid → plaintext payload)
    side_stores: dict[str, dict[str, bytes]] = field(default_factory=dict)


class PrivateDataManager:
    """Submit and read transactions whose payload lives in a PDC."""

    def __init__(self, network: FabricNetwork):
        self.network = network
        self._collections: dict[str, PrivateDataCollection] = {}

    def create_collection(
        self, name: str, member_orgs: set[str]
    ) -> PrivateDataCollection:
        """Define a collection over the given organizations."""
        collection = PrivateDataCollection(name=name, member_orgs=set(member_orgs))
        for peer in self.network.peers:
            if peer.identity.organization in collection.member_orgs:
                collection.side_stores[peer.peer_id] = {}
        self._collections[name] = collection
        return collection

    def collection(self, name: str) -> PrivateDataCollection:
        collection = self._collections.get(name)
        if collection is None:
            raise AccessDeniedError(f"unknown private data collection {name!r}")
        return collection

    # -- submission -----------------------------------------------------------

    def submit_private(
        self,
        user: User,
        collection_name: str,
        fn: str,
        args: dict,
        public: dict,
        payload: bytes,
    ):
        """Submit a transaction whose payload goes into the collection.

        Returns the commit event (asynchronous); on commit, member
        peers' side stores receive the plaintext while the ledger holds
        only the salted hash.
        """
        collection = self.collection(collection_name)
        salt = random_salt()
        digest = salted_hash(payload, salt)
        annotated = dict(public)
        annotated["pdc"] = collection_name
        proposal = Proposal(
            chaincode="supply",
            fn=fn,
            args=args,
            public=annotated,
            concealed=digest,
            salt=salt,
            creator=user.user_id,
        )
        event = self.network.submit(proposal)
        # Dissemination to member peers (modelled at submit; in Fabric it
        # happens via gossip during endorsement).
        for store in collection.side_stores.values():
            store[proposal.tid] = bytes(payload)
        return event

    # -- reads -------------------------------------------------------------------

    def read_private(
        self, requester: User, collection_name: str, tid: str, validate: bool = True
    ) -> bytes:
        """Read a private payload from a member peer's side store.

        Only users of member organizations may read.  When ``validate``
        is set, the plaintext is checked against the salted hash on the
        ledger.

        Raises
        ------
        AccessDeniedError
            If the requester's org is not a collection member.
        TransactionNotFoundError
            If no member peer holds the payload.
        """
        collection = self.collection(collection_name)
        if requester.organization not in collection.member_orgs:
            raise AccessDeniedError(
                f"org {requester.organization!r} is not a member of "
                f"collection {collection_name!r}"
            )
        for peer_id, store in collection.side_stores.items():
            if tid in store:
                payload = store[tid]
                if validate:
                    tx = self.network.get_transaction(tid)
                    if not verify_salted_hash(payload, tx.salt, tx.concealed):
                        raise TransactionNotFoundError(
                            f"side-store payload for {tid} does not match the "
                            f"ledger hash (peer {peer_id} tampered?)"
                        )
                return payload
        raise TransactionNotFoundError(
            f"no member peer holds private data for {tid!r}"
        )
