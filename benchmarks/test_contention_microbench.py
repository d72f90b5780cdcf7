"""Commit-backend microbenchmarks: occ rebase vs. reference abort.

A zipf-skewed stream of read-modify-write counter bumps (see
``repro.workload.zipf``) is submitted in concurrent waves, so each
block carries many transactions endorsed against the same hot-key
pre-state.  The reference backend commits one winner per key per block
and stamps the rest ``MVCC_CONFLICT``; the occ backend re-executes the
losers against the in-block state at validation time and commits the
rebased write sets.  Goodput is committed bumps per *simulated*
second — both legs replay the identical trace on the identical block
schedule, so the ratio isolates the commit policy.

Three legs at the acceptance skew (s = 1.2):

- ``reference`` — first-committer-wins, conflicts surface to clients;
- ``reference+retry`` — conflicts re-endorsed client-side with bounded
  seeded backoff (``mvcc_retry_attempts``); same final business state
  as occ, paid for in latency and wasted endorsements;
- ``occ`` — validation-time rebase; every bump commits.

Correctness ride-alongs: occ and reference+retry must converge to the
*identical* final counter values (every submitted bump applied exactly
once), and on a conflict-free trace the two backends must be
byte-identical — same tip hash, same state root, same codes.

Results are recorded under ``contention`` in ``BENCH_micro.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_contention_microbench.py -v -s
"""

from __future__ import annotations

from repro import build_network
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.network import Gateway
from repro.fabric.peer import ValidationCode
from repro.workload.zipf import ContentionWorkload, CounterContract

#: Describes this file's rows in ``BENCH_micro.json``.
_DESCRIPTION = (
    "occ rebase vs reference first-committer-wins on one zipf-skewed "
    "counter trace and block schedule; goodput per simulated second"
)

#: Acceptance floor: occ goodput at zipf s=1.2 must be at least this
#: multiple of the reference backend on the identical trace.
OCC_MIN_SPEEDUP = 2.0

REQUESTS = 64
WAVE = 16
HOT_KEYS = 8
SKEW = 1.2
#: Client-side retry budget for the reference+retry leg: a hot key hit
#: by every request in a wave needs WAVE-1 rounds in the worst case.
RETRY_ATTEMPTS = WAVE
SKEW_SWEEP = (0.0, 0.6, 1.2)


def _config(commit_backend, retry_attempts=0):
    return NetworkConfig(
        latency=SINGLE_REGION,
        real_signatures=False,
        batch_timeout_ms=20.0,
        commit_backend=commit_backend,
        mvcc_retry_attempts=retry_attempts,
    )


def _run_leg(commit_backend, retry_attempts=0, skew=SKEW, conflict_rate=1.0):
    """Replay the contention trace; returns every cross-leg observable."""
    trace = ContentionWorkload(
        requests=REQUESTS,
        hot_keys=HOT_KEYS,
        skew=skew,
        conflict_rate=conflict_rate,
        seed=11,
    ).generate()
    network = build_network(_config(commit_backend, retry_attempts))
    network.install_chaincode(CounterContract())
    gateway = Gateway(network, network.register_user("bencher"))
    env = network.env

    committed = 0
    for start in range(0, len(trace), WAVE):
        events = [
            gateway.submit_async("counter", "bump", request.args)
            for request in trace[start : start + WAVE]
        ]
        env.run(until=env.all_of(events))
        committed += sum(
            1 for event in events if event.value.code is ValidationCode.VALID
        )
    network.verify_convergence()

    expected = ContentionWorkload.expected_totals(trace)
    outcomes = network.phase_wall.commit_outcomes()
    peer = network.reference_peer
    duration_s = env.now / 1000.0
    return {
        "backend": commit_backend,
        "retry_attempts": retry_attempts,
        "skew": skew,
        "conflict_rate": conflict_rate,
        "attempted": len(trace),
        "committed": committed,
        "sim_duration_s": round(duration_s, 4),
        "goodput_tps": round(committed / duration_s, 1),
        "abort_rate": round(outcomes["abort_rate"], 4),
        "rebase_rate": round(outcomes["rebase_rate"], 4),
        "outcome_totals": outcomes["totals"],
        "per_block": outcomes["per_block"],
        "mvcc_retries": network.mvcc_retries,
        "final_counters": {
            key: gateway.query("counter", "get", {"key": key})
            for key in sorted(expected)
        },
        "expected_counters": dict(sorted(expected.items())),
        "tip": peer.chain.tip_hash.hex(),
        "state_root": peer.current_state_root().hex(),
        "codes": {
            tid: code.value
            for tid, code in sorted(peer.validation_codes.items())
        },
    }


def _public(leg):
    """The leg minus bulky per-tid detail, for the JSON report."""
    return {
        k: v
        for k, v in leg.items()
        if k not in ("tip", "state_root", "codes", "per_block")
    }


def test_occ_goodput_speedup_under_skew(rearm, record):
    """The acceptance bench: occ goodput >= 2x reference at s=1.2, with
    abort/rebase rates reported and business outcomes preserved."""
    rearm()
    reference = _run_leg("reference")
    rearm()
    retry = _run_leg("reference", retry_attempts=RETRY_ATTEMPTS)
    rearm()
    occ_leg = _run_leg("occ")

    # occ commits the whole offered load; reference loses the block's
    # conflict losers; the retry leg recovers them at a latency cost.
    assert occ_leg["committed"] == REQUESTS
    assert occ_leg["abort_rate"] == 0.0
    assert occ_leg["outcome_totals"]["rebased"] > 0
    assert reference["committed"] < REQUESTS
    assert reference["abort_rate"] > 0.0
    assert retry["committed"] == REQUESTS
    assert retry["mvcc_retries"] > 0
    assert retry["sim_duration_s"] > occ_leg["sim_duration_s"]

    # Identical business outcomes: every bump applied exactly once.
    assert occ_leg["final_counters"] == occ_leg["expected_counters"]
    assert retry["final_counters"] == occ_leg["final_counters"]

    speedup = occ_leg["goodput_tps"] / reference["goodput_tps"]
    record("contention", _DESCRIPTION, {"skewed_counter_bumps": {
        "requests": REQUESTS,
        "wave": WAVE,
        "hot_keys": HOT_KEYS,
        "skew": SKEW,
        "reference": _public(reference),
        "reference_retry": _public(retry),
        "occ": _public(occ_leg),
        "occ_goodput_speedup": round(speedup, 2),
        "min_required": OCC_MIN_SPEEDUP,
        "per_block_occ": occ_leg["per_block"],
    }})
    assert speedup >= OCC_MIN_SPEEDUP, (
        f"occ goodput speedup {speedup:.2f}x below {OCC_MIN_SPEEDUP}x "
        f"at zipf s={SKEW}"
    )


def test_goodput_across_skews(rearm, record):
    """Sweep the skew: the occ advantage grows with contention and
    vanishes (to byte-identity) without it."""
    sweep = {}
    for skew in SKEW_SWEEP:
        rearm()
        reference = _run_leg("reference", skew=skew)
        rearm()
        occ_leg = _run_leg("occ", skew=skew)
        assert occ_leg["committed"] == REQUESTS
        assert occ_leg["final_counters"] == occ_leg["expected_counters"]
        sweep[f"s_{skew}"] = {
            "reference_goodput_tps": reference["goodput_tps"],
            "occ_goodput_tps": occ_leg["goodput_tps"],
            "reference_abort_rate": reference["abort_rate"],
            "occ_rebase_rate": occ_leg["rebase_rate"],
            "speedup": round(
                occ_leg["goodput_tps"] / reference["goodput_tps"], 2
            ),
        }
    # More skew concentrates conflicts, so the reference backend aborts
    # at least as often at the acceptance skew as uniformly.
    assert (
        sweep[f"s_{SKEW_SWEEP[-1]}"]["reference_abort_rate"]
        >= sweep[f"s_{SKEW_SWEEP[0]}"]["reference_abort_rate"] * 0.8
    )
    record("contention", _DESCRIPTION, {"skew_sweep": sweep})


def test_conflict_free_byte_identity(rearm, record):
    """Without contention the backends must not differ in a single bit."""
    rearm()
    reference = _run_leg("reference", conflict_rate=0.0)
    rearm()
    occ_leg = _run_leg("occ", conflict_rate=0.0)

    assert reference["abort_rate"] == 0.0
    assert occ_leg["outcome_totals"]["rebased"] == 0
    for key in ("tip", "state_root", "codes", "committed", "final_counters"):
        assert occ_leg[key] == reference[key], f"{key} diverged"
    record("contention", _DESCRIPTION, {"conflict_free_identity": {
        "requests": REQUESTS,
        "tips_identical": True,
        "state_roots_identical": True,
        "codes_identical": True,
    }})
