"""Sharded scale-out microbenchmarks: throughput vs shard count.

A shard-local contention workload (``repro.workload.zipf`` with
``shards=N``: round-robin home shards, per-shard hot-key namespaces) is
pumped by one independent client process per shard, all inside a single
simulation.  Each shard is a complete Fabric channel — its own orderer,
peers, block schedule, and commit backend — so shard-local waves
overlap in simulated time and committed tx per simulated second scales
with the shard count; the consistent-hash router keeps every request on
exactly one channel.

Legs:

- **scaling** — 1/2/4/8 shards on the identical offered load at fixed
  conflict rate; the acceptance floor is committed-tx/s at 4 shards >=
  2.5x the 1-shard run, with per-shard balance reported;
- **identity** — a 1-shard sharded deployment replays the trace
  byte-identically (tip hash, state root, validation codes) to the
  plain unsharded network under the same seed;
- **cross-shard mix** — a fraction of requests spans two shards through
  the hardened 2PC layer; throughput degrades smoothly, and
  ``InvariantMonitor.check()`` on every shard holds every distributed
  transaction all-or-nothing;
- **chaos** — one whole shard (orderer + peers) is power-cut mid-run
  by a ``crash_chain`` plan event; survivors keep committing, the dead
  shard recovers from its durable WAL/snapshots at ``heal()``, and the
  final state shows zero invariant violations.

Results are recorded under ``sharding`` in ``BENCH_micro.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_sharding_microbench.py -v -s
"""

from __future__ import annotations

from repro import build_network
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.network import Gateway
from repro.fabric.peer import ValidationCode
from repro.faults import FaultEvent, FaultInjector, FaultPlan, InvariantMonitor
from repro.sharding import (
    CrossShardWrite,
    ShardedGateway,
    ShardedNetwork,
    TwoPhaseCoordinator,
)
from repro.workload.zipf import ContentionWorkload, CounterContract

#: Describes this file's rows in ``BENCH_micro.json``.
_DESCRIPTION = (
    "scale-out over N consistent-hash-placed channels, cross-shard 2PC mix, "
    "whole-shard crash recovery on one seeded trace; simulated time"
)

#: Acceptance floor: committed tx/s at 4 shards over the 1-shard run.
SCALING_MIN_SPEEDUP = 2.5

REQUESTS = 128
WAVE = 16
HOT_KEYS = 8
SKEW = 1.2
SHARD_COUNTS = (1, 2, 4, 8)
CROSS_FRACTIONS = (0.0, 0.2)
#: This file's ``rearm`` seed and first tid (its recorded rows depend on them).
REARM = (0x51A2D, 8_000_000)


def _config(storage=None):
    return NetworkConfig(
        latency=SINGLE_REGION,
        real_signatures=False,
        batch_timeout_ms=20.0,
        commit_backend="occ",
        storage_backend=storage,
    )


def _deployment(shards, storage=None):
    sharded = ShardedNetwork(config=_config(storage), shard_count=shards)
    for network in sharded.shards:
        network.install_chaincode(CounterContract())
    return sharded, ShardedGateway(sharded, "bencher")


def _trace(shards, cross_shard_fraction=0.0, requests=REQUESTS):
    return ContentionWorkload(
        requests=requests,
        hot_keys=HOT_KEYS,
        skew=SKEW,
        conflict_rate=1.0,
        seed=11,
        shards=shards,
        cross_shard_fraction=cross_shard_fraction,
    )


def _pump(env, gateway, coordinator, shard, bucket, tally):
    """One shard's client: its partition of the trace, in waves.

    Every shard pumps concurrently — the independent channels overlap
    in simulated time, which is exactly the scale-out being measured.
    Cross-shard requests go through the 2PC driver instead of the
    router's direct path.
    """
    for start in range(0, len(bucket), WAVE):
        wave = bucket[start : start + WAVE]
        events = []
        for request in wave:
            if request.cross_shard:
                writes = [
                    CrossShardWrite(
                        shard=request.shard,
                        lock_key=request.key,
                        payload=request.args,
                    )
                ] + [
                    CrossShardWrite(
                        shard=partner, lock_key=key, payload=request.args
                    )
                    for partner, key in request.partners
                ]
                events.append(coordinator.execute(writes))
            else:
                events.append(
                    gateway.on(shard).submit_async(
                        "counter", "bump", request.args
                    )
                )
        yield env.all_of(events)
        for request, event in zip(wave, events):
            if request.cross_shard:
                if event.value.committed:
                    tally["cross_committed"] += 1
                    tally[shard] += 1
            elif event.value.code is ValidationCode.VALID:
                tally[shard] += 1


def _run_sharded(shards, cross_shard_fraction=0.0, requests=REQUESTS):
    """Run the trace on an N-shard deployment; return the observables."""
    workload = _trace(shards, cross_shard_fraction, requests)
    trace = workload.generate()
    sharded, gateway = _deployment(shards)
    coordinator = TwoPhaseCoordinator(sharded, gateway)
    env = sharded.env

    tally = {shard: 0 for shard in range(shards)}
    tally["cross_committed"] = 0
    pumps = [
        env.process(
            _pump(env, gateway, coordinator, shard, bucket, tally)
        )
        for shard, bucket in enumerate(workload.per_shard(trace))
    ]
    env.run(until=env.all_of(pumps))
    sharded.verify_convergence()

    committed = sum(tally[shard] for shard in range(shards))
    duration_s = env.now / 1000.0
    expected = ContentionWorkload.expected_totals(trace)
    mismatches = _counter_mismatches(sharded, trace, expected)
    return {
        "shards": shards,
        "cross_shard_fraction": cross_shard_fraction,
        "attempted": len(trace),
        "committed": committed,
        "sim_duration_s": round(duration_s, 4),
        "goodput_tps": round(committed / duration_s, 1),
        "per_shard_committed": [tally[shard] for shard in range(shards)],
        "counter_mismatches": mismatches,
        "extra": sharded.harness_extra(),
        "coordinator_stats": dict(coordinator.stats),
        "_sharded": sharded,
    }


def _counter_mismatches(sharded, trace, expected):
    """Shard-local bumps must land exactly once on the key's home shard."""
    by_shard: dict[int, dict[str, int]] = {}
    for request in trace:
        if request.cross_shard:
            continue
        by_shard.setdefault(request.shard, {})
        by_shard[request.shard][request.key] = (
            by_shard[request.shard].get(request.key, 0) + request.amount
        )
    mismatches = 0
    for shard, totals in by_shard.items():
        for key, want in totals.items():
            got = sharded.shards[shard].query("counter", "get", {"key": key})
            if got != want:
                mismatches += 1
    return mismatches


def _public(leg):
    return {k: v for k, v in leg.items() if not k.startswith("_")}


def test_scaling_with_shard_count(rearm, record):
    """The acceptance bench: near-linear committed-tx/s scale-out."""
    legs = {}
    for shards in SHARD_COUNTS:
        rearm(*REARM)
        leg = _run_sharded(shards)
        # Every offered bump commits (occ backend, shard-local keys),
        # and the round-robin trace keeps the shards balanced.
        assert leg["committed"] == REQUESTS
        assert leg["counter_mismatches"] == 0
        per_shard = leg["per_shard_committed"]
        assert max(per_shard) == min(per_shard)
        legs[shards] = leg

    scaling = {
        shards: {
            "goodput_tps": legs[shards]["goodput_tps"],
            "sim_duration_s": legs[shards]["sim_duration_s"],
            "per_shard_committed": legs[shards]["per_shard_committed"],
            "speedup_vs_1": round(
                legs[shards]["goodput_tps"] / legs[1]["goodput_tps"], 2
            ),
        }
        for shards in SHARD_COUNTS
    }
    speedup_at_4 = scaling[4]["speedup_vs_1"]
    record("sharding", _DESCRIPTION, {"scaling": {
        "requests": REQUESTS,
        "wave": WAVE,
        "hot_keys_per_shard": HOT_KEYS,
        "skew": SKEW,
        "conflict_rate": 1.0,
        "by_shard_count": {str(k): v for k, v in scaling.items()},
        "speedup_at_4_shards": speedup_at_4,
        "min_required": SCALING_MIN_SPEEDUP,
    }})
    assert speedup_at_4 >= SCALING_MIN_SPEEDUP, (
        f"4-shard goodput speedup {speedup_at_4:.2f}x below "
        f"{SCALING_MIN_SPEEDUP}x"
    )
    # Monotone through the sweep: more shards never slow the run.
    tps = [scaling[shards]["goodput_tps"] for shards in SHARD_COUNTS]
    assert tps == sorted(tps)


def test_single_shard_byte_identity(rearm, record):
    """A 1-shard sharded deployment is the unsharded network, exactly."""
    requests = 32
    workload = _trace(1, requests=requests)
    trace = workload.generate()

    def replay(submit, env, network):
        codes = []
        for start in range(0, len(trace), WAVE):
            events = [
                submit("counter", "bump", request.args)
                for request in trace[start : start + WAVE]
            ]
            env.run(until=env.all_of(events))
            codes.extend(event.value.code.value for event in events)
        peer = network.reference_peer
        return {
            "codes": codes,
            "tip": peer.chain.tip_hash.hex(),
            "state_root": peer.current_state_root().hex(),
            "height": peer.chain.height,
            "now": env.now,
        }

    rearm(*REARM)
    reference = build_network(_config())
    reference.install_chaincode(CounterContract())
    ref_gateway = Gateway(reference, reference.register_user("bencher"))
    ref = replay(ref_gateway.submit_async, reference.env, reference)

    rearm(*REARM)
    sharded, gateway = _deployment(1)
    one = replay(
        gateway.on(0).submit_async, sharded.env, sharded.shards[0]
    )

    assert one == ref, "1-shard deployment diverged from the reference"
    record("sharding", _DESCRIPTION, {"single_shard_identity": {
        "requests": requests,
        "tips_identical": one["tip"] == ref["tip"],
        "state_roots_identical": one["state_root"] == ref["state_root"],
        "codes_identical": one["codes"] == ref["codes"],
        "sim_now_identical": one["now"] == ref["now"],
    }})


def test_cross_shard_mix(rearm, record):
    """2PC traffic is atomic and costs throughput smoothly, not a cliff."""
    legs = {}
    for fraction in CROSS_FRACTIONS:
        rearm(*REARM)
        leg = _run_sharded(4, cross_shard_fraction=fraction)
        assert leg["counter_mismatches"] == 0
        # No half-commits: each shard's atomicity oracle checks the
        # transactions it coordinated against their participants.
        for shard in leg["_sharded"].shards:
            InvariantMonitor(shard).check()
        stats = leg["coordinator_stats"]
        cross = leg["extra"]["cross_shard"]
        if fraction > 0:
            # Cross-shard requests lock *hot* keys, so concurrent 2PC
            # transactions contend: some are refused at prepare and
            # abort atomically.  Every begun transaction must reach a
            # decision, and the refused ones must not half-commit.
            assert stats["begun"] > 0
            assert stats["committed"] > 0
            assert stats["committed"] + stats["aborted"] == stats["begun"]
            assert (stats["aborted"] == 0) == (stats["refusals"] == 0)
            assert cross["committed"] == stats["committed"]
            assert cross["aborted"] == stats["aborted"]
        legs[fraction] = leg

    local = legs[CROSS_FRACTIONS[0]]
    mixed = legs[CROSS_FRACTIONS[-1]]
    # Distributed commits cost two rounds of consensus plus coordinator
    # bookkeeping, so the mixed leg is slower — but it must still beat
    # the 1-shard baseline by a wide margin at this fraction.
    assert mixed["goodput_tps"] < local["goodput_tps"]
    record("sharding", _DESCRIPTION, {"cross_shard_mix": {
        "shards": 4,
        "fractions": {
            str(fraction): {
                "goodput_tps": leg["goodput_tps"],
                "committed": leg["committed"],
                "cross_shard": leg["extra"]["cross_shard"],
                "coordinator_stats": leg["coordinator_stats"],
            }
            for fraction, leg in legs.items()
        },
        "throughput_cost": round(
            1 - mixed["goodput_tps"] / local["goodput_tps"], 4
        ),
    }})


def test_chaos_whole_shard_crash_mid_run(rearm, record):
    """Power-cut one shard mid-run; survivors never stall, the victim
    recovers from its WAL, and no invariant breaks."""
    rearm(*REARM)
    shards = 4
    victim = 1
    workload = _trace(shards)
    trace = workload.generate()
    buckets = workload.per_shard(trace)
    sharded, gateway = _deployment(shards, storage="memory")
    env = sharded.env

    def pump(shard, bucket):
        committed = 0
        for start in range(0, len(bucket), WAVE):
            events = [
                gateway.on(shard).submit_async("counter", "bump", request.args)
                for request in bucket[start : start + WAVE]
            ]
            env.run(until=env.all_of(events))
            committed += sum(
                1 for e in events if e.value.code is ValidationCode.VALID
            )
        return committed

    half = len(buckets[victim]) // 2
    committed = {shard: 0 for shard in range(shards)}

    # Phase A: everyone commits the first half of their partition.
    for shard in range(shards):
        committed[shard] += pump(shard, buckets[shard][:half])

    # Mid-run: the victim's rack loses power — orderer and peers gone.
    chain = sharded.shards[victim]
    pre_crash = sharded.fingerprint()[chain.chain_name]
    crash = FaultEvent("crash_chain", at_ms=0.0)
    injector = FaultInjector(chain, FaultPlan(retry=None, events=(crash,)))
    env.run(until=env.now)
    assert not sharded.shard_reachable(victim)
    assert chain.query("counter", "get", {"key": buckets[victim][0].key}) == 0

    # Phase B: survivors finish their partitions while the victim is dark.
    survivor_committed_during_outage = 0
    for shard in range(shards):
        if shard != victim:
            done = pump(shard, buckets[shard][half:])
            committed[shard] += done
            survivor_committed_during_outage += done
    assert survivor_committed_during_outage > 0

    # Recovery: durable block log + per-peer snapshot/WAL/catch-up.
    injector.heal()
    modes = [peer.last_recovery.mode for peer in chain.peers]
    post_recovery = sharded.fingerprint()[chain.chain_name]
    assert post_recovery == pre_crash, "recovery lost committed state"

    # Phase C: the recovered shard finishes its partition.
    committed[victim] += pump(victim, buckets[victim][half:])

    sharded.verify_convergence()
    assert _counter_mismatches(
        sharded, trace, ContentionWorkload.expected_totals(trace)
    ) == 0
    assert sum(committed.values()) == len(trace)
    assert all(sharded.shard_reachable(shard) for shard in range(shards))

    record("sharding", _DESCRIPTION, {"chaos_shard_crash": {
        "shards": shards,
        "victim": chain.chain_name,
        "requests": len(trace),
        "committed_total": sum(committed.values()),
        "survivor_committed_during_outage": survivor_committed_during_outage,
        "recovery_modes": [str(mode) for mode in modes],
        "victim_state_preserved": post_recovery == pre_crash,
        "invariant_violations": 0,
        "per_shard": sharded.per_shard_stats(),
    }})
