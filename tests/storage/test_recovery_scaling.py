"""Perf guard: restart cost scales with the checkpoint delta, not chain length.

The satellite fix this pins: the original recovery path re-validated
every block from genesis — O(chain length) signatures and MVCC checks
per restart.  With snapshots, the work that grows with history is only
the cheap structural WAL parse; *state replay* is bounded by the
snapshot interval and *re-validation* is gone entirely.  Two chains of
different lengths but one interval must therefore pay the same replay
cost, while the legacy path's cost keeps growing with the chain.
"""

from __future__ import annotations

from repro.fabric.chaincode import Chaincode
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.network import FabricNetwork
from repro.sim import Environment

INTERVAL = 10
#: Deliberately off-interval so each run has a non-empty WAL suffix
#: (3 blocks) past its last checkpoint.
SHORT, LONG = 43, 123


class KV(Chaincode):
    name = "kv"

    def fn_put(self, ctx, key, value):
        ctx.put_state(key, value)
        return "ok"


def _run(n_blocks: int, backend: str):
    env = Environment()
    network = FabricNetwork(
        env,
        NetworkConfig(
            latency=SINGLE_REGION,
            real_signatures=False,
            batch_timeout_ms=50.0,
            storage_backend=backend,
            snapshot_interval_blocks=INTERVAL,
        ),
    )
    network.install_chaincode(KV())
    user = network.register_user("alice")
    for i in range(n_blocks):
        network.invoke_sync(user, "kv", "put", {"key": f"k{i % 11}", "value": i})
    return network


def _restart_report(network):
    peer = network.peers[1]
    shadow = peer.empty_replica()
    report = peer.store.recover_peer(shadow)
    assert shadow.chain.tip_hash == peer.chain.tip_hash
    assert shadow.current_state_root() == peer.current_state_root()
    return report


def test_recovery_work_is_bounded_by_checkpoint_delta():
    short = _restart_report(_run(SHORT, "memory"))
    long = _restart_report(_run(LONG, "memory"))

    for report, n in ((short, SHORT), (long, LONG)):
        assert report.mode == "snapshot+wal"
        assert report.snapshot_height == n - (n % INTERVAL)
        # The two guarded quantities: state replay bounded by the
        # interval, and zero re-validation — independent of n.
        assert report.state_blocks_replayed <= INTERVAL
        assert report.revalidated_blocks == 0
        # The only O(n) component is the structural WAL parse.
        assert report.chain_blocks_loaded == n

    # Tripling the chain must not grow the replayed suffix at all.
    assert short.state_blocks_replayed == LONG % INTERVAL
    assert long.state_blocks_replayed == short.state_blocks_replayed


def test_legacy_genesis_replay_cost_grows_with_chain():
    """The contrast case: without a store, recovery re-validates the
    whole chain — the O(chain-length) behaviour the snapshot path fixes."""
    network = _run(SHORT, "none")
    peer = network.peers[1]
    peer.recover_from_chain(
        network._peer_keys,
        network._peer_secrets,
        policy=network.config.endorsement_policy,
    )
    assert peer.last_recovery.mode == "genesis-replay"
    assert peer.last_recovery.revalidated_blocks == SHORT
    assert peer.last_recovery.state_blocks_replayed == SHORT
