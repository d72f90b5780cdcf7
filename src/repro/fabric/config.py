"""Network configuration: topology, block cutting, and the timing model.

All times are in **milliseconds of simulated time**.  The constants are
calibrated so the simulated network reproduces the *shape* of the
paper's measurements on GCP (≈800 TPS peer ceiling for plain
transactions, ≈2.5 s commit latency under load, 20–30 % multi-region
throughput penalty) — see DESIGN.md §5 for the calibration rationale.

Latency presets model the paper's deployment: two peers in
``europe-north1`` and ``northamerica-northeast1``, three orderers in
``asia-southeast1`` (multi-region), versus everything co-located
(single region).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LatencyModel:
    """One-way network delays (ms) between the system's component sites."""

    client_to_peer: float
    client_to_orderer: float
    orderer_to_peer: float
    orderer_to_orderer: float
    peer_to_peer: float

    def endorsement_round_trip(self) -> float:
        """Client → peer → client."""
        return 2 * self.client_to_peer


#: Everything in one region: sub-millisecond LAN-ish delays.
SINGLE_REGION = LatencyModel(
    client_to_peer=1.0,
    client_to_orderer=1.0,
    orderer_to_peer=1.0,
    orderer_to_orderer=0.5,
    peer_to_peer=0.5,
)

#: The paper's deployment: peers in Europe/North America, orderers in
#: Asia.  Delays approximate GCP inter-region RTT/2.
MULTI_REGION = LatencyModel(
    client_to_peer=90.0,
    client_to_orderer=110.0,
    orderer_to_peer=120.0,
    orderer_to_orderer=1.0,  # orderers co-located in one region
    peer_to_peer=95.0,
)


@dataclass(frozen=True)
class NetworkConfig:
    """All knobs of the simulated Fabric network."""

    # -- topology ---------------------------------------------------------
    peer_count: int = 2
    orderer_count: int = 3
    latency: LatencyModel = SINGLE_REGION
    #: How many peers must endorse a proposal.
    endorsement_policy: int = 1

    # -- block cutting (Fabric orderer batch parameters) -------------------
    block_max_transactions: int = 500
    block_max_bytes: int = 512 * 1024
    #: Time the orderer waits after the first queued tx before cutting a
    #: partial block (Fabric's BatchTimeout; 2 s in common profiles).
    batch_timeout_ms: float = 1000.0

    # -- service times (ms) ------------------------------------------------
    #: Chaincode simulation + signing at an endorser, per transaction.
    endorse_base_ms: float = 0.5
    #: Extra endorsement cost per KiB of transaction payload.
    endorse_per_kib_ms: float = 0.05
    #: Raft consensus on one block among the orderers.
    ordering_consensus_ms: float = 5.0
    #: Per-block validation/commit overhead at a peer (ledger append,
    #: state-digest update).
    commit_block_overhead_ms: float = 30.0
    #: Per-transaction validation cost (policy + MVCC + state write).
    #: ~1 ms ≈ the ~800 TPS single-peer ceiling seen for Fabric 2.2.
    validate_tx_ms: float = 1.05
    #: Extra validation cost per KiB of transaction payload (hash checks
    #: and state writes scale with payload size).
    validate_per_kib_ms: float = 0.1
    #: Per-view processing cost at commit for each view entry a
    #: transaction carries (membership tags / encrypted merge entries) —
    #: the mechanism behind Fig 10's degradation when transactions are
    #: in many views while Fig 11 (one view per transaction) stays flat.
    view_entry_ms: float = 0.115
    #: Multiplier on validation cost for transactions that update
    #: contract state maps (ViewStorage merges) — these carry composite
    #: writes and are the reason irrevocable views commit ~150 req/s
    #: while revocable views reach ~800 (Fig 4).
    contract_write_factor: float = 4.0

    #: Run real Raft consensus among the orderers instead of charging
    #: a fixed per-block consensus delay.  Slower to simulate but
    #: enables fault injection (leader crashes, elections).
    use_raft: bool = False

    # -- ordering backend ------------------------------------------------------
    #: Consensus backend for this network's ordering service
    #: ("raft"/"pbft"; fourth pluggable dimension).  ``None`` uses the
    #: process-wide default (``REPRO_ORDERER_BACKEND``, or "raft").
    #:
    #: - "raft": the crash-fault-tolerant path the paper's deployment
    #:   uses — the fixed ``ordering_consensus_ms`` charge by default,
    #:   or the real protocol with elections when ``use_raft`` is on.
    #: - "pbft": Byzantine fault tolerance (``repro.fabric.pbft``) —
    #:   3f+1 replicas, pre-prepare/prepare/commit quorums, view
    #:   changes, and signed quorum certificates retained per block.
    #:   An honest pbft run charges exactly ``ordering_consensus_ms``
    #:   per block and is byte-identical to the raft backend.
    #:
    #: ``use_raft=True`` pins the raft backend: it overrides an ambient
    #: ``REPRO_ORDERER_BACKEND=pbft``, and combining it with an explicit
    #: ``orderer_backend="pbft"`` is an error.
    orderer_backend: str | None = None
    #: pbft progress timer: how long replicas wait for a primary's
    #: pre-prepare before starting a view change.
    pbft_view_timeout_ms: float = 150.0

    # -- cryptography -------------------------------------------------------
    #: RSA modulus size for registered identities.
    key_bits: int = 1024
    #: When False, endorsement signatures use a keyed-MAC stand-in
    #: instead of RSA — identical message flow, ~100x faster wall-clock.
    #: Benchmarks disable real signing; functional tests keep it on.
    real_signatures: bool = True

    #: Payload size baseline for a transaction with no extra view data.
    baseline_tx_bytes: int = 600

    # -- ledger -------------------------------------------------------------
    #: Ledger hot-path implementation for this network's peers
    #: ("fast"/"reference"; see :mod:`repro.ledger.backend`).  ``None``
    #: uses the process-wide default (``REPRO_LEDGER_BACKEND``, or
    #: "fast").  Simulated results are identical either way — the knob
    #: only changes wall-clock, like the crypto backend switch.
    ledger_backend: str | None = None

    # -- commit policy -------------------------------------------------------
    #: Commit-time conflict policy for this network's peers
    #: ("occ"/"reference"; see :mod:`repro.fabric.occ`).  ``None`` uses
    #: the process-wide default (``REPRO_COMMIT_BACKEND``, or
    #: "reference").  Unlike the crypto and ledger switches this
    #: one changes *observable semantics under contention*: the occ
    #: backend rebases MVCC-conflicted transactions instead of aborting
    #: them.  Conflict-free workloads stay byte-identical either way.
    commit_backend: str | None = None

    #: Client-side MVCC retry: when > 0, a transaction that commits
    #: with ``MVCC_CONFLICT`` is re-endorsed and resubmitted (as a
    #: fresh transaction id) up to this many extra times, with bounded
    #: seeded exponential backoff between attempts so retries spread
    #: out instead of re-colliding in the next hot block.  0 (default)
    #: keeps the seed behaviour: the conflict is returned to the
    #: caller.  Mainly useful on the reference commit backend — under
    #: occ most conflicts rebase at the peer instead.
    mvcc_retry_attempts: int = 0
    #: Base backoff before the first MVCC retry (doubles per attempt,
    #: capped at 8x, plus seeded jitter — see
    #: :class:`repro.faults.plan.RetryPolicy`).
    mvcc_retry_backoff_ms: float = 25.0
    #: Seed for the retry backoff jitter (deterministic runs).
    mvcc_retry_seed: int = 7

    # -- sharding ------------------------------------------------------------
    #: Number of independent channels a
    #: :class:`repro.sharding.ShardedNetwork` built from this config
    #: runs.  1 (default) is the unsharded deployment — a single shard
    #: named ``"main"``, byte-identical to a plain
    #: :class:`~repro.fabric.network.FabricNetwork`.
    shard_count: int = 1
    #: Virtual nodes per shard on the consistent-hash ring (balance vs.
    #: ring size; see :mod:`repro.sharding.ring`).
    ring_vnodes: int = 64

    # -- faults --------------------------------------------------------------
    #: Fault-injection plan for this network: inline JSON or a path to
    #: a JSON file (see :class:`repro.faults.FaultPlan`); an injector
    #: is attached at network construction.  ``None`` falls back to the
    #: process-wide ``REPRO_FAULT_PLAN`` environment variable; when
    #: that is unset too, the network is fault-free and every fault
    #: hook is skipped.
    fault_plan: str | None = None

    # -- durability ----------------------------------------------------------
    #: Durability backend for this network's nodes ("memory"/"disk"/
    #: "none"; see :mod:`repro.storage`).  ``None`` falls back to the
    #: process-wide ``REPRO_STORAGE_BACKEND`` environment variable;
    #: when that is unset too, durability is off and peers are purely
    #: in-memory (the seed behaviour).  With a backend, every peer
    #: write-ahead-logs committed blocks, checkpoints state every
    #: ``snapshot_interval_blocks``, and restarts recover from
    #: snapshot + WAL suffix instead of genesis replay.
    storage_backend: str | None = None
    #: Root directory for the "disk" backend (a fresh temporary
    #: directory when ``None``).  Ignored by "memory".
    storage_dir: str | None = None
    #: Blocks between state checkpoints; bounds the WAL suffix a
    #: restart must re-apply.
    snapshot_interval_blocks: int = 25

    def payload_delay_ms(self, size_bytes: int, per_kib: float) -> float:
        """Size-proportional component of a service time."""
        return per_kib * (size_bytes / 1024.0)


#: Default configuration used throughout tests and examples.
DEFAULT_CONFIG = NetworkConfig()


def benchmark_config(
    latency: LatencyModel = MULTI_REGION, **overrides: object
) -> NetworkConfig:
    """Configuration preset for benchmark runs.

    Multi-region latencies (the paper's default deployment) and MAC
    stand-in signatures so pure-Python RSA does not dominate wall-clock
    time.  Keyword overrides are applied on top.
    """
    params: dict[str, object] = {
        "latency": latency,
        "real_signatures": False,
        "key_bits": 1024,
    }
    params.update(overrides)
    return NetworkConfig(**params)  # type: ignore[arg-type]
