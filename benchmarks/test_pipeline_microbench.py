"""Pipeline microbenchmarks: the two mechanisms that measure as something.

Both on a mixed EI/ER workload — every request carries a secret and
joins one irrevocable (EI) and one revocable (ER) view — on a
consortium-sized channel of eight peers, each through public API only:

- **Batched view maintenance.**  The same requests in the same
  client-sized batches, once through ``ViewManager.invoke_many`` (one
  coalesced ViewStorage merge per batch) and once as concurrent
  ``invoke_with_secret_async`` calls (the paper's per-request path: one
  merge per request).  Recorded: committed tx per host second and
  on-chain transactions.
- **The cross-replica validation memo.**  The batched run's ordered
  blocks replayed into eight fresh replicas, once sharing a
  ``BlockValidationMemo`` per block (what the network does) and once
  with ``validate_and_commit(memo=None)`` (every replica validates from
  scratch).  Recorded: host seconds to commit the whole log everywhere.

Correctness ride-along: with content-derived keys and nonces (see
``_deterministic_encryption``) both invoke legs must materialise a
byte-identical final state root and identical soundness/completeness
audit verdicts, and both replay legs must reach the live peers' tip
hash and state root.

Results are recorded under ``pipeline`` in ``BENCH_micro.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_pipeline_microbench.py -v -s
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro import build_network
from repro.crypto import modes
from repro.crypto.hashing import sha256
from repro.crypto.symmetric import SymmetricKey
from repro.fabric.config import benchmark_config
from repro.fabric.network import Gateway
from repro.fabric.peer import ValidationCode
from repro.fabric.validation import BlockValidationMemo
from repro.views.encryption_based import EncryptionBasedManager
from repro.views.manager import ViewInvocation, ViewReader
from repro.views.predicates import AttributeEquals
from repro.views.secret import ProcessedSecret
from repro.views.types import ViewMode
from repro.views.verification import ViewVerifier

#: Describes this file's rows in ``BENCH_micro.json``.
_DESCRIPTION = (
    "invoke_many vs per-request invokes and the cross-replica validation "
    "memo, mixed EI/ER, 8 peers; wall-clock, ratios and tx counts matter"
)

#: Acceptance floors, set under the ratios measured on a 2-core
#: container (nine runs: 1.17-1.61x and 2.63-3.51x): ``invoke_many``
#: committed tx/s over per-request invokes, and memo-less over
#: shared-memo seconds to commit the log on every replica.
BATCHING_MIN_SPEEDUP = 1.1
MEMO_MIN_SPEEDUP = 2.0

REQUESTS = 240
BATCH = 20
#: A consortium-sized channel (four orgs, two peers each) — the shape
#: the cross-replica validation memo is built for: without it every
#: block is re-validated on all eight replicas, with it the first
#: replica validates and the rest reuse its verdicts, tip-hash-guarded.
PEERS = 8

#: (view name, public attribute, matching value, mode) — two EI and two
#: ER views; every request matches exactly one of each.
VIEWS = [
    ("ei0", "eislot", 0, ViewMode.IRREVOCABLE),
    ("ei1", "eislot", 1, ViewMode.IRREVOCABLE),
    ("er0", "erslot", 0, ViewMode.REVOCABLE),
    ("er1", "erslot", 1, ViewMode.REVOCABLE),
]

_REAL_ENCRYPT = modes.encrypt


def _content_addressed_encrypt(key, plaintext, nonce=None):
    if nonce is None:
        nonce = sha256(b"bench-siv" + bytes(key) + bytes(plaintext))[
            : modes.NONCE_SIZE
        ]
    return _REAL_ENCRYPT(key, plaintext, nonce)


@contextmanager
def _deterministic_encryption():
    """Derive nonces from (key, plaintext) instead of drawing randomness.

    The two invoke legs consume randomness in different orders (per-request
    vs. batched maintenance), which would make on-chain ciphertexts —
    and therefore state roots — incomparable across legs.  Content-
    addressed nonces make every ciphertext a pure function of its
    inputs, so equal inputs ⇒ equal state bytes, whatever the execution
    order.  (SIV-style; fine for a benchmark, not a general mode.)
    """
    modes.encrypt = _content_addressed_encrypt
    try:
        yield
    finally:
        modes.encrypt = _REAL_ENCRYPT


class _PinnedKeyManager(EncryptionBasedManager):
    """EI/ER manager whose per-transaction keys derive from the secret.

    Same reasoning as the nonce derivation: ``K_ij`` must not depend on
    how many random draws happened before this request, or the two
    legs' view entries diverge byte-wise.
    """

    def process_secret(self, secret: bytes) -> ProcessedSecret:
        tx_key = SymmetricKey.from_bytes(sha256(b"bench-txkey" + bytes(secret))[:16])
        return ProcessedSecret(
            concealed=tx_key.encrypt(bytes(secret)),
            salt=b"",
            tx_key=tx_key,
            plaintext=b"",
        )


def _invocations():
    return [
        ViewInvocation(
            fn="create_item",
            args={"item": f"m{i:05d}", "owner": f"W{i % 7}"},
            public={
                "item": f"m{i:05d}",
                "eislot": i % 2,
                "erslot": (i // 2) % 2,
            },
            secret=f"manifest-{i:05d}".encode(),
            tid=f"tx-mb-{i:05d}",
        )
        for i in range(REQUESTS)
    ]


def _audit(network, manager):
    """Read and verify every view; returns comparable verdict structures."""
    reader_user = network.register_user("auditor")
    reader = ViewReader(reader_user, Gateway(network, reader_user))
    verifier = ViewVerifier(Gateway(network, reader_user))
    verdicts = {}
    for name, attr, slot, mode in VIEWS:
        reader.accept_offchain_grant(
            manager.grant_access_offchain(name, "auditor")
        )
        if mode is ViewMode.IRREVOCABLE:
            result = reader.read_irrevocable_view(manager, name)
        else:
            result = reader.read_view(manager, name)
        predicate = AttributeEquals(attr, slot)
        soundness = verifier.verify_soundness(
            name, predicate, result, manager.concealment
        )
        completeness = verifier.verify_completeness(
            name, predicate, set(result.secrets)
        )
        verdicts[name] = {
            "served": len(result.secrets),
            "soundness_ok": soundness.ok,
            "checked": soundness.checked,
            "violations": sorted(soundness.violations),
            "completeness_ok": completeness.ok,
            "missing": sorted(completeness.missing),
        }
    return verdicts


#: Timing repeats per leg: the run is deterministic, so observables are
#: taken from the first pass and the wall-clock is the best of N —
#: the standard way to report a noisy single-machine timing.
TIMING_REPEATS = 3


def _best_of(run):
    """Best-of-N timed runs; observables from the fastest (identical) pass."""
    return min(
        (run() for _ in range(TIMING_REPEATS)),
        key=lambda leg: leg["host_wall_s"],
    )


def _run_invoke_leg(batched):
    """One full run; returns throughput plus every cross-leg observable."""
    with _deterministic_encryption():
        network = build_network(benchmark_config(peer_count=PEERS))
        env = network.env
        owner = network.register_user("owner")
        manager = _PinnedKeyManager(Gateway(network, owner))
        for name, attr, slot, mode in VIEWS:
            manager.create_view(name, AttributeEquals(attr, slot), mode)
            record = manager.buffer.get(name)
            record.key = SymmetricKey.from_bytes(
                sha256(b"bench-viewkey" + name.encode())[:16]
            )
        invocations = _invocations()

        started = time.perf_counter()
        outcomes = []
        for start in range(0, REQUESTS, BATCH):
            batch = invocations[start : start + BATCH]
            if batched:
                outcomes.extend(manager.invoke_many(batch))
                continue
            events = [
                manager.invoke_with_secret_async(
                    inv.fn, inv.args, inv.public, inv.secret, tid=inv.tid
                )
                for inv in batch
            ]
            outcomes.extend(env.run(until=env.all_of(events)))
        host_wall = time.perf_counter() - started

        network.verify_convergence()
        committed = sum(
            1 for out in outcomes if out.notice.code is ValidationCode.VALID
        )
        peer = network.reference_peer
        return {
            "committed": committed,
            "host_wall_s": host_wall,
            "tps": committed / host_wall,
            "onchain_txs": sum(len(b.transactions) for b in peer.chain),
            "blocks": peer.chain.height,
            "sim_ms": env.now,
            "state_root": peer.current_state_root().hex(),
            "audits": _audit(network, manager),
            "phase_wall_s": network.phase_wall.summary(),
            "network": network,
        }


def _public(leg):
    """The JSON-safe, machine-comparable part of a leg."""
    return {
        key: (round(value, 3) if isinstance(value, float) else value)
        for key, value in leg.items()
        if key not in ("audits", "state_root", "network")
    }


def test_batched_view_maintenance_speedup(record):
    """``invoke_many`` vs per-request invokes: fewer on-chain txs, more
    committed tx per host second, byte-identical state and audits."""
    per_request = _best_of(lambda: _run_invoke_leg(batched=False))
    batched = _best_of(lambda: _run_invoke_leg(batched=True))

    # Nothing observable in the business or view state may change.
    assert per_request["committed"] == batched["committed"] == REQUESTS
    assert batched["state_root"] == per_request["state_root"]
    assert batched["audits"] == per_request["audits"]
    for verdict in batched["audits"].values():
        assert verdict["soundness_ok"] and verdict["completeness_ok"]
        assert not verdict["violations"] and not verdict["missing"]
    assert sum(v["served"] for v in batched["audits"].values()) == 2 * REQUESTS

    # One merge transaction per request vs one per batch.
    assert (
        per_request["onchain_txs"] - batched["onchain_txs"]
        == REQUESTS - REQUESTS // BATCH
    )

    speedup = batched["tps"] / per_request["tps"]
    record("pipeline", _DESCRIPTION, {"batched_view_maintenance": {
        "requests": REQUESTS,
        "batch_size": BATCH,
        "peers": PEERS,
        "views": [name for name, *_rest in VIEWS],
        "per_request": _public(per_request),
        "invoke_many": _public(batched),
        "speedup": round(speedup, 2),
        "min_required": BATCHING_MIN_SPEEDUP,
        "state_roots_identical": True,
        "audit_verdicts_identical": True,
    }})
    assert speedup >= BATCHING_MIN_SPEEDUP, (
        f"batching speedup {speedup:.2f}x below {BATCHING_MIN_SPEEDUP}x"
    )


def _replay_leg(network, shared_memo):
    """Commit the ordered log on PEERS fresh replicas; time it."""
    live = network.reference_peer
    replicas = [live.empty_replica() for _ in range(PEERS)]
    started = time.perf_counter()
    for block in network.block_log:
        memo = BlockValidationMemo() if shared_memo else None
        for replica in replicas:
            replica.validate_and_commit(
                block,
                network._peer_keys,
                network._peer_secrets,
                policy=network.config.endorsement_policy,
                memo=memo,
            )
    host_wall = time.perf_counter() - started
    for replica in replicas:
        assert replica.chain.tip_hash == live.chain.tip_hash
        assert replica.validation_codes == live.validation_codes
        assert replica.current_state_root() == live.current_state_root()
    return {"host_wall_s": host_wall}


def test_validation_memo_speedup(record):
    """Shared per-block memo vs every replica validating from scratch."""
    network = _run_invoke_leg(batched=True)["network"]
    memoless = _best_of(lambda: _replay_leg(network, shared_memo=False))
    shared = _best_of(lambda: _replay_leg(network, shared_memo=True))
    speedup = memoless["host_wall_s"] / shared["host_wall_s"]
    record("pipeline", _DESCRIPTION, {"validation_memo": {
        "replicas": PEERS,
        "blocks": len(network.block_log),
        "txs": sum(len(block.transactions) for block in network.block_log),
        "memoless_host_wall_s": round(memoless["host_wall_s"], 4),
        "shared_memo_host_wall_s": round(shared["host_wall_s"], 4),
        "speedup": round(speedup, 2),
        "min_required": MEMO_MIN_SPEEDUP,
        "tips_and_state_roots_identical": True,
    }})
    assert speedup >= MEMO_MIN_SPEEDUP, (
        f"memo speedup {speedup:.2f}x below {MEMO_MIN_SPEEDUP}x"
    )
