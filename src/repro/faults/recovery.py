"""Recovery paths: crash-recovery replay and block catch-up.

Two complementary mechanisms bring a replica back after a fault:

- **Replay** (:meth:`repro.fabric.peer.Peer.recover_from_chain`): with
  a durable store attached, the peer loads its newest verified
  snapshot and re-applies only the write-ahead-log suffix past it —
  restart work proportional to the delta since the last checkpoint,
  not chain length, with torn WAL tails truncated first.  Without a
  store, the legacy model applies: the chain object itself is treated
  as durable and every block is re-validated from genesis.  Either
  way the rebuilt state db, validation codes, and digest root are
  byte-identical to what the peer held before the crash.
- **Catch-up** (:func:`catch_up`): the peer missed block deliveries
  while down (or a crash tore the tail off its WAL); the missing
  suffix is replayed from the network's ordered block log.  These
  re-commits go through the normal commit path, so a stored peer
  WAL-logs the re-fetched blocks — the repaired log is durable too.

Either way the peer comes back with a fresh incremental state digest
rebuilt from the replay.
"""

from __future__ import annotations


def catch_up(network, peer) -> int:
    """Commit every block ``peer`` is missing, from the ordered log.

    Runs outside simulated time (recovery hooks and post-run healing);
    the in-simulation path with service-time accounting is
    ``FabricNetwork._deliver``'s catch-up loop.  Returns the number of
    blocks applied.
    """
    applied = 0
    while peer.chain.height < len(network.block_log):
        block = network.block_log[peer.chain.height]
        peer.validate_and_commit(
            block,
            network._peer_keys,
            network._peer_secrets,
            policy=network.config.endorsement_policy,
        )
        applied += 1
    return applied


def recover_peer(network, peer) -> int:
    """Full recovery: restore from the durable store (or legacy chain
    replay), then catch up the rest from the ordered log.

    Returns the number of caught-up blocks; ``peer.last_recovery``
    holds the :class:`~repro.storage.RecoveryReport` with the restore
    mode and replay counters.
    """
    peer.recover_from_chain(
        network._peer_keys,
        network._peer_secrets,
        policy=network.config.endorsement_policy,
    )
    refetched = catch_up(network, peer)
    if peer.last_recovery is not None:
        peer.last_recovery.refetched_blocks = refetched
    return refetched
