"""Merkle state proofs for irrevocable view entries (paper §3, §5.2).

The paper anchors view integrity in the peers' consensus on a Merkle
digest of contract state: "the entire state is stored in the leaves of
a Merkle tree ... and the hash at the root is stored on the ledger".
A reader who does not trust the peer serving a ViewStorage entry can
demand a *state proof*: the Merkle audit path from the entry to the
agreed state root.

:class:`StateProofService` produces and checks such proofs against the
state roots the network records at commit time
(``FabricNetwork.state_roots``, enabled via ``track_state_roots``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.merkle import MerkleProof
from repro.errors import MerkleProofError, VerificationError
from repro.fabric.chaincode import namespaced
from repro.fabric.network import FabricNetwork
from repro.views import storage_contract


@dataclass(frozen=True)
class ViewEntryProof:
    """A provable ViewStorage entry: value + audit path + anchor block."""

    view: str
    tid: str
    entry: bytes
    block_number: int
    proof: MerkleProof


class StateProofService:
    """Produce and verify Merkle proofs for on-chain view entries."""

    def __init__(self, network: FabricNetwork):
        if not network.track_state_roots:
            raise VerificationError(
                "state proofs need FabricNetwork.track_state_roots = True "
                "(enable it before committing transactions)"
            )
        self.network = network

    def _entry_key(self, view: str, tid: str) -> str:
        return namespaced(
            storage_contract.CHAINCODE_NAME, f"data~{view}~{tid}"
        )

    def latest_anchored_block(self) -> int:
        """Newest block with a recorded state root."""
        if not self.network.state_roots:
            raise MerkleProofError("no state roots recorded yet")
        return max(self.network.state_roots)

    def prove_entry(self, view: str, tid: str) -> ViewEntryProof:
        """Build a proof that the current entry is covered by the newest
        agreed state root.

        Raises
        ------
        MerkleProofError
            If the entry does not exist in committed state.
        """
        peer = self.network.reference_peer
        key = self._entry_key(view, tid)
        entry = peer.statedb.get(key)
        if entry is None:
            raise MerkleProofError(
                f"view {view!r} has no on-chain entry for {tid!r}"
            )
        # The peer's incremental digest: amortised O(log n) per proof.
        digest = peer.state_digest()
        block_number = self.latest_anchored_block()
        root = self.network.state_roots[block_number]
        if digest.root() != root:
            raise MerkleProofError(
                "state changed since the last anchored root; commit a block "
                "first or prove against the current digest"
            )
        return ViewEntryProof(
            view=view,
            tid=tid,
            entry=bytes(entry),
            block_number=block_number,
            proof=digest.prove(key),
        )

    def verify(self, entry_proof: ViewEntryProof) -> None:
        """Check a proof against the recorded state root.

        This is what an untrusting reader runs: it needs only the proof
        and the (consensus-agreed) state root — not the serving peer's
        honesty.

        Raises
        ------
        VerificationError
            If the proof does not verify (entry forged or stale).
        """
        root = self.network.state_roots.get(entry_proof.block_number)
        if root is None:
            raise VerificationError(
                f"no agreed state root for block {entry_proof.block_number}"
            )
        from repro.ledger.merkle_state import _encode_entry

        key = self._entry_key(entry_proof.view, entry_proof.tid)
        leaf = _encode_entry(key, entry_proof.entry)
        if not entry_proof.proof.verify(leaf, root):
            raise VerificationError(
                f"state proof for view {entry_proof.view!r} / "
                f"{entry_proof.tid} failed against block "
                f"{entry_proof.block_number}'s state root"
            )
