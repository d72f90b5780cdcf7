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

import os
from dataclasses import dataclass

from repro.errors import ConfigError, FaultInjectionError
from repro.fabric.occ import COMMIT_BACKENDS


@dataclass(frozen=True)
class LatencyModel:
    """One-way network delays (ms) between the system's component sites."""

    client_to_peer: float
    client_to_orderer: float
    orderer_to_peer: float
    orderer_to_orderer: float
    peer_to_peer: float


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
    #: ("raft"/"pbft").  ``None`` uses the process-wide default
    #: (``REPRO_ORDERER_BACKEND``, or "raft"); see
    #: :func:`resolve_backends`.
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

    # -- cryptography -------------------------------------------------------
    #: RSA modulus size for registered identities.
    key_bits: int = 1024
    #: When False, endorsement signatures use a keyed-MAC stand-in
    #: instead of RSA — identical message flow, ~100x faster wall-clock.
    #: Benchmarks disable real signing; functional tests keep it on.
    real_signatures: bool = True

    # -- commit policy -------------------------------------------------------
    #: Commit-time conflict policy for this network's peers
    #: ("occ"/"reference"; see :mod:`repro.fabric.occ`).  ``None`` uses
    #: the process-wide default (``REPRO_COMMIT_BACKEND``, or
    #: "reference").  This one changes *observable semantics under
    #: contention*: the occ backend rebases MVCC-conflicted
    #: transactions instead of aborting them.  Conflict-free workloads
    #: stay byte-identical either way.
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

    def __post_init__(self) -> None:
        if self.peer_count < 1:
            raise ConfigError(f"peer_count must be >= 1, got {self.peer_count}")
        if not 1 <= self.endorsement_policy <= self.peer_count:
            raise ConfigError(
                f"endorsement_policy must be in 1..peer_count ({self.peer_count}), "
                f"got {self.endorsement_policy}"
            )

    def payload_delay_ms(self, size_bytes: int, per_kib: float) -> float:
        """Size-proportional component of a service time."""
        return per_kib * (size_bytes / 1024.0)


@dataclass(frozen=True)
class RetryPolicy:
    """Client gateway retry: timeout + capped exponential backoff.

    An attempt that produces no commit notice within ``timeout_ms`` of
    its start is resubmitted (same transaction id, so a duplicate that
    was merely slow is deduplicated at the orderer) after an
    exponential backoff — ``backoff_ms · backoff_factor^(attempt-1)``,
    capped at ``max_backoff_ms``, plus uniform jitter from the plan's
    seeded RNG.  A notice that lands during a backoff completes the
    request; after ``max_attempts`` it fails.
    """

    max_attempts: int = 8
    timeout_ms: float = 4_000.0
    backoff_ms: float = 200.0
    backoff_factor: float = 2.0
    max_backoff_ms: float = 5_000.0
    jitter_ms: float = 50.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultInjectionError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not self.timeout_ms > 0:
            raise FaultInjectionError("timeout_ms must be positive")
        for name in ("backoff_ms", "backoff_factor", "max_backoff_ms", "jitter_ms"):
            value = getattr(self, name)
            if not value >= 0:  # NaN fails too
                raise FaultInjectionError(f"{name} must be >= 0, got {value}")

    def backoff_for(self, attempt: int, rng) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        base = min(
            self.backoff_ms * self.backoff_factor ** max(attempt - 1, 0),
            self.max_backoff_ms,
        )
        if self.jitter_ms:
            base += rng.uniform(0.0, self.jitter_ms)
        return base


#: Default configuration used throughout tests and examples.
DEFAULT_CONFIG = NetworkConfig()


#: ``NetworkConfig`` field -> (environment variable, default, allowed).
_SELECTORS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "commit_backend": (
        "REPRO_COMMIT_BACKEND",
        "reference",
        tuple(sorted(COMMIT_BACKENDS)),
    ),
    "orderer_backend": ("REPRO_ORDERER_BACKEND", "raft", ("pbft", "raft")),
    "storage_backend": (
        "REPRO_STORAGE_BACKEND",
        "none",
        ("disk", "memory", "none", "off"),
    ),
}


@dataclass(frozen=True)
class ResolvedBackends:
    """What one network runs with, after config and environment."""

    #: "occ" or "reference" (a key of ``repro.fabric.occ.COMMIT_BACKENDS``).
    commit: str
    #: "raft" or "pbft".
    orderer: str
    #: "memory", "disk", or ``None`` for no durable stores.
    storage: str | None
    #: Fault plan source (inline JSON or a file path), or ``None`` for a
    #: fault-free network.
    fault_plan: str | None


def resolve_backends(config: NetworkConfig) -> ResolvedBackends:
    """Every selector a network reads, resolved in one place.

    For each of ``commit_backend``, ``orderer_backend`` and
    ``storage_backend`` an explicit config field wins, then the
    selector's ``REPRO_*`` variable, then its default; names compare
    lower-cased.  ``fault_plan`` follows the same order with
    ``REPRO_FAULT_PLAN`` and is handed on unparsed; ``"off"`` pins a
    network fault-free even when the variable is exported, which the
    differential suites need for a guaranteed-clean leg.

    ``use_raft=True`` pins the raft orderer: it overrides an ambient
    ``REPRO_ORDERER_BACKEND=pbft`` (the real-protocol raft tests must
    keep passing under it), but contradicts an explicit
    ``orderer_backend="pbft"``.

    Raises
    ------
    ConfigError
        On a value outside a selector's allowed set, naming the field,
        the variable and the allowed values, or on the
        ``use_raft``/pbft contradiction.
    """
    commit = _select(config, "commit_backend")
    orderer = _select(config, "orderer_backend", consult_env=not config.use_raft)
    if orderer == "pbft" and config.use_raft:
        raise ConfigError(
            "orderer_backend='pbft' and use_raft=True are mutually "
            "exclusive: use_raft selects the real raft protocol"
        )
    storage = _select(config, "storage_backend")
    plan = config.fault_plan or os.environ.get("REPRO_FAULT_PLAN")
    return ResolvedBackends(
        commit=commit,
        orderer=orderer,
        storage=None if storage in ("none", "off") else storage,
        fault_plan=plan if plan and plan.strip().lower() != "off" else None,
    )


def _select(config: NetworkConfig, field_name: str, consult_env: bool = True) -> str:
    """One selector: the config field, else its variable, else its default."""
    env_var, default, allowed = _SELECTORS[field_name]
    value = getattr(config, field_name)
    if value is None and consult_env:
        value = os.environ.get(env_var)
    value = (value or default).lower()
    if value not in allowed:
        raise ConfigError(
            f"unknown {field_name} {value!r} (NetworkConfig.{field_name} "
            f"or {env_var}); expected one of {list(allowed)}"
        )
    return value


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
