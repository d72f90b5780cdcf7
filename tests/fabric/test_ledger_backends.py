"""The peers' incremental state digest against the full-rebuild oracle.

Every peer keeps an :class:`IncrementalStateDigest` from genesis; after
a multi-block run each one's root and every membership proof must equal
what :class:`StateDigest` rebuilds from that peer's state database.
"""

from repro import build_network
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.network import Gateway
from repro.ledger.merkle_state import StateDigest, state_root
from repro.views.hash_based import HashBasedManager
from repro.views.predicates import AttributeEquals
from repro.views.state_proofs import StateProofService
from repro.views.types import ViewMode


def _network(**overrides):
    return build_network(
        NetworkConfig(
            latency=SINGLE_REGION,
            real_signatures=False,
            batch_timeout_ms=50.0,
            **overrides,
        )
    )


def _commit_some(network, n=3):
    owner = network.register_user("owner")
    manager = HashBasedManager(Gateway(network, owner))
    manager.create_view("w1", AttributeEquals("to", "W1"), ViewMode.IRREVOCABLE)
    outcomes = [
        manager.invoke_with_secret(
            "create_item",
            {"item": f"i{i}", "owner": "W1"},
            {"item": f"i{i}", "from": None, "to": "W1", "access": ["W1"]},
            b"secret",
        )
        for i in range(n)
    ]
    return manager, outcomes


def test_every_peer_matches_the_full_rebuild_after_a_multi_block_run():
    network = _network(peer_count=3)
    network.track_state_roots = True
    _commit_some(network, n=5)
    assert network.reference_peer.chain.height > 3
    for peer in network.peers:
        oracle = StateDigest(peer.statedb)
        assert peer.current_state_root() == oracle.root()
        digest = peer.state_digest()
        for key in sorted(peer.statedb.snapshot()):
            proof = digest.prove(key)
            assert proof == oracle.prove(key)
            assert oracle.verify(key, peer.statedb.get(key), proof, oracle.root())
    # All peers agree, and the root recorded for the newest block is
    # the current state's root.
    roots = {peer.current_state_root() for peer in network.peers}
    assert roots == {network.state_roots[max(network.state_roots)]}


def test_state_proofs_verify_against_the_anchored_root():
    network = _network()
    network.track_state_roots = True
    manager, outcomes = _commit_some(network)
    service = StateProofService(network)
    proof = service.prove_entry("w1", outcomes[0].tid)
    service.verify(proof)  # must not raise


def test_incremental_digest_tracks_every_committed_block():
    """After each commit the persistent digest equals a fresh rebuild —
    i.e. it really is maintained by observation, not recomputed."""
    network = _network()
    peer = network.reference_peer

    checked = {"blocks": 0}

    def on_block(block, result):
        assert peer.current_state_root() == state_root(peer.statedb)
        checked["blocks"] += 1

    network.on_block(on_block)
    _commit_some(network)
    assert checked["blocks"] > 0

