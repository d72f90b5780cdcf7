"""Ledger fast-path microbenchmarks: the library vs. its reference oracles.

Like the crypto microbenchmarks, this module measures real wall-clock:
the fast paths and their oracles differ only in how the same roots,
scan results, and audit verdicts are computed (the property tests in
``tests/properties`` prove it exhaustively; here we assert it on the
concrete benchmark workloads).  Whole-workload host numbers belong to
``benchmarks/e2e``; the legs here are primitives.

Layers measured:

- the tracked-state-root commit path: per-block full tree rebuild
  (:class:`~repro.ledger.merkle_state.StateDigest`) vs. the persistent
  :class:`~repro.ledger.merkle_state.IncrementalStateDigest`,
- ``StateDatabase.scan_prefix`` — full sort per scan vs. the
  maintained sorted-key index,
- repeated view audits — fresh completeness scans vs. the incremental
  verifier's per-definition cursors and soundness cache.

Results are recorded under ``ledger`` in ``BENCH_micro.json`` at the repo
root so the before/after numbers are checked in alongside the code.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_ledger_microbench.py -v -s
"""

from __future__ import annotations

import time
from types import SimpleNamespace

from repro.crypto.hashing import salted_hash
from repro.fabric.peer import ValidationCode
from repro.ledger.block import Block
from repro.ledger.chain import Blockchain
from repro.ledger.merkle_state import IncrementalStateDigest, state_root
from repro.ledger.statedb import StateDatabase, Version
from repro.ledger.transaction import Transaction
from repro.views.manager import QueryResult
from repro.views.predicates import AttributeEquals
from repro.views.types import Concealment
from repro.views.verification import ViewVerifier

#: Describes this file's rows in ``BENCH_micro.json``.
_DESCRIPTION = "ledger fast paths vs their reference oracles; wall-clock, ratios matter"

#: Acceptance floor for the tracked-state-root commit path at >=5k
#: committed transactions.  Measured headroom is large (see JSON);
#: asserting only the floor keeps slow CI machines from flaking.
STATE_ROOT_MIN_SPEEDUP = 5.0
SCAN_MIN_SPEEDUP = 2.0
AUDIT_MIN_SPEEDUP = 2.0


def _commit_workload(blocks: int, writes_per_block: int, prepopulate: int):
    """Deterministic per-block write batches: updates plus tail inserts.

    Mirrors the shape of real commits: most writes update existing
    entries (item state transitions), a few append fresh keys
    (ViewStorage / txlist entries with monotonically growing ids).
    """
    state = 11
    existing = [f"item~{i:05d}" for i in range(prepopulate)]
    batches = []
    counter = 0
    for b in range(blocks):
        writes = []
        for w in range(writes_per_block):
            counter += 1
            if w % 5 == 4:  # 1 in 5 writes inserts a fresh key
                key = f"txlog~{counter:08d}"
            else:
                state = (state * 1103515245 + 12345) % (2**31)
                key = existing[state % len(existing)]
            writes.append((key, f"v{counter}-{b}".encode()))
        batches.append(writes)
    return existing, batches


def test_state_root_commit_path_speedup(record):
    """Per-block state roots over 5k committed writes: must clear 5x.

    The reference leg recomputes the full tree after every block (what
    ``track_state_roots`` cost before the incremental digest); the fast
    leg folds each block's writes into the persistent digest.  Roots
    must match byte-for-byte at every block.
    """
    blocks, per_block, prepopulate = 200, 25, 2000
    existing, batches = _commit_workload(blocks, per_block, prepopulate)

    def populate(db: StateDatabase) -> None:
        for i, key in enumerate(existing):
            db.put(key, b"seed", Version(block=0, position=i))

    # Reference: full StateDigest rebuild per block.
    db_ref = StateDatabase()
    populate(db_ref)
    ref_roots = []
    t0 = time.perf_counter()
    for b, writes in enumerate(batches):
        for pos, (key, value) in enumerate(writes):
            db_ref.put(key, value, Version(block=b + 1, position=pos))
        ref_roots.append(state_root(db_ref))
    t_ref = time.perf_counter() - t0

    # Fast: persistent incremental digest observing the same writes.
    db_fast = StateDatabase()
    populate(db_fast)
    digest = IncrementalStateDigest(db_fast)
    digest.root()  # fold the pre-populated state before timing commits
    fast_roots = []
    t0 = time.perf_counter()
    for b, writes in enumerate(batches):
        for pos, (key, value) in enumerate(writes):
            db_fast.put(key, value, Version(block=b + 1, position=pos))
        fast_roots.append(digest.root())
    t_fast = time.perf_counter() - t0

    assert ref_roots == fast_roots  # byte-identical at every block
    committed = blocks * per_block
    assert committed >= 5000
    speedup = t_ref / t_fast
    record("ledger", _DESCRIPTION, {"state_root_commit_path": {
        "committed_txs": committed,
        "blocks": blocks,
        "writes_per_block": per_block,
        "final_state_keys": len(db_ref.keys()),
        "reference_s": round(t_ref, 3),
        "incremental_s": round(t_fast, 3),
        "speedup": round(speedup, 1),
        "min_required": STATE_ROOT_MIN_SPEEDUP,
    }})
    assert speedup >= STATE_ROOT_MIN_SPEEDUP, (
        f"state-root speedup {speedup:.1f}x below {STATE_ROOT_MIN_SPEEDUP}x"
    )


def test_scan_prefix_indexed_speedup(record):
    """Selective range reads on a 6k-key state: bisect vs. full sort.

    A ``seg~000`` scan hits 100 of 6000 keys — the shape of the
    TxListContract's per-view segment reads, where the seed's per-scan
    full sort-and-filter is pure overhead.  (Both paths pay
    O(hits) to yield results, so unselective scans gain little; the
    differential tests cover those for correctness.)
    """
    db = StateDatabase()
    pos = 0
    for prefix in ("def~", "seg~", "zzz~"):
        for i in range(2000):
            db.put(f"{prefix}{i:05d}", f"val-{i}".encode(), Version(0, pos))
            pos += 1

    def scan():
        return [list(db.scan_prefix("seg~000")) for _ in range(100)]

    def sorted_scan():
        """The seed's scan: sort the whole key space, filter."""
        return [
            [(k, db.get(k)) for k in sorted(db.keys()) if k.startswith("seg~000")]
            for _ in range(100)
        ]

    list(db.scan_prefix("seg~000"))  # warm once
    t0 = time.perf_counter()
    ref_result = sorted_scan()
    t_ref = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast_result = scan()
    t_fast = time.perf_counter() - t0

    assert ref_result == fast_result
    assert len(ref_result[0]) == 100
    speedup = t_ref / t_fast
    record("ledger", _DESCRIPTION, {"scan_prefix_6k_keys": {
        "keys": 6000,
        "hits_per_scan": 100,
        "scans": 100,
        "reference_ms": round(t_ref * 1e3, 2),
        "indexed_ms": round(t_fast * 1e3, 2),
        "speedup": round(speedup, 1),
        "min_required": SCAN_MIN_SPEEDUP,
    }})
    assert speedup >= SCAN_MIN_SPEEDUP, (
        f"scan_prefix speedup {speedup:.1f}x below {SCAN_MIN_SPEEDUP}x"
    )


def _audit_chain_blocks(blocks: int, txs_per_block: int):
    """Pre-built invoke transactions, one owner in three round-robin."""
    owners = ["alice", "bob", "carol"]
    out = []
    tid = 0
    for b in range(blocks):
        txs = []
        for _ in range(txs_per_block):
            tid += 1
            secret = f"secret-{tid}".encode()
            salt = f"salt-{tid}".encode()
            txs.append(
                Transaction(
                    tid=f"audit-tx-{tid:06d}",
                    kind="invoke",
                    nonsecret={"public": {"owner": owners[tid % 3]}},
                    concealed=salted_hash(secret, salt),
                    salt=salt,
                )
            )
        out.append(txs)
    return out


def _verifier_over(
    chain: Blockchain, validation_codes: dict, incremental: bool
) -> ViewVerifier:
    peer = SimpleNamespace(chain=chain, validation_codes=validation_codes)
    gateway = SimpleNamespace(network=SimpleNamespace(reference_peer=peer))
    return ViewVerifier(gateway, incremental=incremental)


def test_audit_cursor_speedup(record):
    """Periodic re-audits of a growing chain: cursors vs. full rescans.

    A view owner is audited after every 15 new blocks.  The reference
    verifier rescans the whole chain each time (quadratic in total);
    the incremental verifier's completeness cursor and soundness cache
    only pay for the new tail.  Verdicts must agree at every audit.
    """
    blocks, per_block, audit_every = 300, 15, 20
    batches = _audit_chain_blocks(blocks, per_block)
    chain = Blockchain("audit-bench")
    predicate = AttributeEquals("owner", "alice")

    codes = {tx.tid: ValidationCode.VALID for txs in batches for tx in txs}
    reference = _verifier_over(chain, codes, incremental=False)
    incremental = _verifier_over(chain, codes, incremental=True)
    served: set[str] = set()
    secrets: dict[str, bytes] = {}

    t_ref = t_inc = 0.0
    audits = 0
    for b, txs in enumerate(batches):
        chain.append(
            Block.build(
                number=b,
                previous_hash=chain.tip_hash,
                transactions=txs,
                state_root=b"\x00" * 32,
                timestamp=float(b),
            )
        )
        for tx in txs:
            if predicate.matches(tx.nonsecret["public"]):
                served.add(tx.tid)
                secrets[tx.tid] = f"secret-{int(tx.tid.split('-')[-1])}".encode()
        if (b + 1) % audit_every:
            continue
        audits += 1
        result = QueryResult(
            view="V_alice", key_version=0, secrets=dict(secrets), tx_keys={}
        )
        t0 = time.perf_counter()
        ref_c = reference.verify_completeness("V_alice", predicate, served)
        ref_s = reference.verify_soundness(
            "V_alice", predicate, result, Concealment.HASH
        )
        t_ref += time.perf_counter() - t0
        t0 = time.perf_counter()
        inc_c = incremental.verify_completeness("V_alice", predicate, served)
        inc_s = incremental.verify_soundness(
            "V_alice", predicate, result, Concealment.HASH
        )
        t_inc += time.perf_counter() - t0
        # Identical verdicts; only the amortised cost differs.
        assert (ref_c.ok, ref_c.checked, ref_c.missing) == (
            inc_c.ok,
            inc_c.checked,
            inc_c.missing,
        )
        assert (ref_s.ok, ref_s.checked, ref_s.violations) == (
            inc_s.ok,
            inc_s.checked,
            inc_s.violations,
        )
        assert inc_c.ledger_accesses <= ref_c.ledger_accesses
        assert inc_s.ledger_accesses <= ref_s.ledger_accesses

    speedup = t_ref / t_inc
    record("ledger", _DESCRIPTION, {"audit_cursors": {
        "chain_blocks": blocks,
        "txs_per_block": per_block,
        "audits": audits,
        "reference_s": round(t_ref, 3),
        "incremental_s": round(t_inc, 3),
        "speedup": round(speedup, 1),
        "min_required": AUDIT_MIN_SPEEDUP,
    }})
    assert speedup >= AUDIT_MIN_SPEEDUP, (
        f"audit speedup {speedup:.1f}x below {AUDIT_MIN_SPEEDUP}x"
    )
