"""The six workloads: what each builds, offers, checks and reports.

Every workload is a function ``run(ctx, seed, scale) -> Outcome``.  It
marks its own phases through ``ctx`` (``setup`` / ``run`` / ``gate``) so
the worker can time them, calls only the public API of ``repro``, and
raises :class:`GateError` when a run's outputs are wrong — a run that
fails its gate reports no numbers.

Sizes below are at ``--scale 1``.  ``scale`` shortens a workload (fewer
requests per client, fewer simulated seconds, fewer 2PC clients); it
never changes rates, client counts of the LedgerView workloads, or the
configuration of the system.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import loadgen
import metrics as rules
from repro import build_network
from repro.baseline import CrossChainDeployment
from repro.fabric.config import SINGLE_REGION, NetworkConfig, benchmark_config
from repro.fabric.network import FabricNetwork, Gateway
from repro.fabric.peer import ValidationCode
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    InvariantMonitor,
    MessageFaultRule,
    RetryPolicy,
)
from repro.serving import (
    AdmissionConfig,
    AsyncGateway,
    NetworkTarget,
    ServingRequest,
    ViewManagerTarget,
)
from repro.sim import Environment
from repro.views import (
    AttributeEquals,
    EncryptionBasedManager,
    HashBasedManager,
    ViewMode,
    ViewReader,
    ViewVerifier,
)
from repro.views.predicates import ParticipantPredicate
from repro.workload import CounterContract, SupplyChainWorkload, wl1_topology


class GateError(Exception):
    """A run produced wrong outputs; its numbers must not be reported."""


@dataclass
class Outcome:
    """What one run of a workload hands back to the worker."""

    #: Requests the end-to-end numbers are about, and how many of them
    #: were committed or served.  On the ladder: the reference rung's.
    attempted: int
    succeeded: int
    #: Simulated metrics and counts: a pure function of (commit,
    #: workload, seed, scale).  Host times are added by the worker.
    values: dict[str, float] = field(default_factory=dict)
    #: Successful requests of the whole run phase, for the host rate;
    #: differs from ``succeeded`` only on the ladder.
    completed: int | None = None

    def __post_init__(self) -> None:
        if self.completed is None:
            self.completed = self.succeeded
        self.values.setdefault(
            "failed_share", (self.attempted - self.succeeded) / self.attempted
        )


# -- sizes and configuration ---------------------------------------------------------

BATCH_SIZE = 25
SESSIONS = 8
#: Gateway admission as in BENCH_serving.
ADMISSION = AdmissionConfig(
    max_inflight=128, shed_high=384, shed_low=336, max_batch=32, linger_ms=2.0
)
LADDER_RATES = (25, 50, 100, 200, 400, 800)
#: Requests per rung: the same at every rate, so that every rung's tail
#: has the same support and costs the same host time (30 simulated
#: seconds at 100 tps, 120 at 25 tps).
LADDER_RUNG_REQUESTS = 3000
#: The ladder rung whose latency, goodput and failures stand for the
#: workload in the end-to-end metrics: the uncontended floor.  Rungs at
#: and past the knee are chaotic in the seed (at 100 tps the quartiles of
#: p50 over seeds lie 30 % of the median apart), which a regression
#: bound cannot use; they are reported per rung instead.
REFERENCE_RATE = 25
VIEWMIX_RATE, VIEWMIX_SECONDS = 40, 180.0
VIEWMIX_VIEWS, VIEWMIX_PRINCIPALS_PER_VIEW = 8, 2
CHAOS_RATE, CHAOS_SECONDS = 50, 160.0
#: Most view entries the gate decrypts and checks for soundness.
SOUNDNESS_SAMPLE = 256
#: The generator may hand a request to the system this late, at most.
GENERATOR_LAG_LIMIT_MS = 1.0


def _scaled(full: float, scale: float, least: int) -> int:
    return max(least, round(full * scale))


def _serving_config(**overrides: Any) -> NetworkConfig:
    """One region, MAC signatures, 15 ms batch timeout: the serving
    tier's channel.  Identities sign nothing here, so small keys."""
    params: dict[str, Any] = dict(
        latency=SINGLE_REGION,
        real_signatures=False,
        batch_timeout_ms=15.0,
        key_bits=512,
    )
    params.update(overrides)
    return NetworkConfig(**params)


# -- shared measurement ----------------------------------------------------------------


def _latency_values(prefix: str, latencies: Sequence[float]) -> dict[str, float]:
    if not latencies:
        return {f"{prefix}_p50": 0.0, f"{prefix}_p99": 0.0}
    return {
        f"{prefix}_p50": rules.percentile(latencies, 0.50),
        f"{prefix}_p99": rules.percentile(latencies, 0.99),
    }


def _end_to_end_latency(latencies: Sequence[float]) -> dict[str, float]:
    return {
        "sim_p50_ms": rules.percentile(latencies, 0.50),
        "sim_p99_ms": rules.percentile(latencies, 0.99),
        "latency_samples": len(latencies),
    }


def _block_timestamp(network: FabricNetwork, tid: str) -> float:
    chain = network.reference_peer.chain
    number, _position = chain.locate(tid)
    return chain.block(number).header.timestamp


def _stage_waits(
    network: FabricNetwork, rows: Sequence[tuple[str, float, float]]
) -> dict[str, float]:
    """Order and commit waits of ``(tid, dispatched_ms, completed_ms)``
    rows: dispatch → block timestamp → the client's terminal event.
    A block stamped before its transaction was dispatched, or after the
    client heard of it, would mean the stages are mis-attributed."""
    order, commit = [], []
    for tid, dispatched_ms, completed_ms in rows:
        cut_ms = _block_timestamp(network, tid)
        order.append(cut_ms - dispatched_ms)
        commit.append(completed_ms - cut_ms)
        _check(
            order[-1] >= 0 and commit[-1] >= 0,
            f"block of {tid} is stamped outside its dispatch..completion span",
        )
    return {
        **_latency_values("fabric.order_wait_ms", order),
        **_latency_values("fabric.commit_wait_ms", commit),
    }


def _network_counts(networks: Sequence[FabricNetwork]) -> dict[str, float]:
    """Counts the program already keeps, read after the run."""
    blocks = sum(n.ordering.blocks_cut for n in networks)
    onchain = sum(n.metrics.onchain_txs.value for n in networks)
    reasons = {"count": 0, "bytes": 0, "timeout": 0}
    outcomes = {"committed": 0, "aborted": 0, "rebased": 0}
    for network in networks:
        for reason in reasons:
            reasons[reason] += network.ordering.cut_reasons.get(reason, 0)
        totals = network.phase_wall.commit_outcomes()["totals"]
        for key in outcomes:
            outcomes[key] += totals[key]
    validated = outcomes["committed"] + outcomes["aborted"]
    values = {
        "fabric.identity.users": sum(len(n.msp) for n in networks),
        "fabric.order.blocks": blocks,
        "fabric.order.tx_per_block": onchain / blocks if blocks else 0.0,
        "fabric.order.cut_count": reasons["count"],
        "fabric.order.cut_bytes": reasons["bytes"],
        "fabric.order.cut_timeout": reasons["timeout"],
        "fabric.order.queue_peak": max(n.orderer_queue_peak for n in networks),
        "fabric.commit.valid_share": (
            outcomes["committed"] / validated if validated else 0.0
        ),
        "fabric.commit.rebased": outcomes["rebased"],
        "fabric.raft.elections": sum(
            n.raft.elections_held for n in networks if n.raft is not None
        ),
        "ledger.chain_bytes": sum(
            n.reference_peer.chain.total_bytes() for n in networks
        ),
        "ledger.state_bytes": sum(
            n.reference_peer.statedb.size_bytes() for n in networks
        ),
    }
    stores = [
        store
        for network in networks
        if network.storage is not None
        for store in network.storage.summary()["nodes"].values()
    ]
    if stores:
        values.update(
            {
                "storage.wal.records": sum(s["records_logged"] for s in stores),
                "storage.wal.bytes_per_tx": (
                    sum(s["wal_bytes"] for s in stores) / onchain if onchain else 0.0
                ),
                "storage.snapshots": sum(s["snapshots_written"] for s in stores),
                "storage.durable_ops": sum(s["durable_ops"] for s in stores),
                "storage.recoveries": sum(s["recoveries"] for s in stores),
            }
        )
    for network in networks:
        if network.faults is not None:
            summary = network.faults.summary()
            values.update(
                {
                    "faults.retries": summary["retries"],
                    "faults.redeliveries": summary["redeliveries"],
                    "faults.dropped": sum(summary["messages_dropped"].values()),
                    "faults.deduped": summary["deduped_txs"],
                }
            )
    return values


def _per_request(
    networks: Sequence[FabricNetwork],
    committed: int,
    onchain_before: int,
    storage_before: int,
    storage_after: int,
) -> dict[str, float]:
    onchain = sum(n.metrics.onchain_txs.value for n in networks) - onchain_before
    return {
        "onchain_tx_per_req": onchain / committed,
        "storage_bytes_per_req": (storage_after - storage_before) / committed,
    }


def _check_network(network: FabricNetwork) -> None:
    """All peers at one height, tip hash and state; exactly-once,
    ordering integrity and durability hold."""
    network.verify_convergence()
    InvariantMonitor(network).check()


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


# -- closed loop: LedgerView methods on WL1 ---------------------------------------------


def _wl1_traces(seed: int, clients: int, requests: int) -> list[list[Any]]:
    topology = wl1_topology()
    items = math.ceil(requests / 3)  # create + two hops per WL1 item
    return [
        SupplyChainWorkload(
            topology,
            items=items,
            seed=seed * 100_003 + client,
            item_prefix=f"c{client}-",
        ).generate_interleaved()[:requests]
        for client in range(clients)
    ]


def _closed_views(
    ctx: Any,
    seed: int,
    manager_cls: type,
    mode: ViewMode,
    clients: int,
    requests: int,
) -> Outcome:
    with ctx.phase("setup"):
        env = Environment()
        network = build_network(benchmark_config(), env=env)
        manager = manager_cls(Gateway(network, network.register_user("view-owner")))
        topology = wl1_topology()
        for node in topology.nodes:
            manager.create_view(f"V_{node}", ParticipantPredicate(node), mode)
        with ctx.span("workload.generate"):
            traces = _wl1_traces(seed, clients, requests)
            offsets = loadgen.client_start_offsets(seed, clients)
        onchain_before = network.metrics.onchain_txs.value
        storage_before = network.total_storage_bytes()

    def submit(_client: int, request: Any, done: dict[int, Any]):
        history = [done[i].tid for i in request.history if i in done]
        return manager.invoke_with_secret_async(
            request.fn,
            request.args,
            request.public,
            request.secret,
            extra_views={f"V_{request.receiver}": history} if history else None,
        )

    with ctx.phase("run"):
        started_ms = env.now
        samples = loadgen.drive_closed_loop(
            env, traces, offsets, submit, BATCH_SIZE
        )
        finished_ms = env.now

    with ctx.phase("gate"):
        attempted = sum(len(trace) for trace in traces)
        good = [s for s in samples if s.value.notice.code is ValidationCode.VALID]
        latencies = [s.completed_ms - s.submitted_ms for s in good]
        # Read before the view check below adds its own grant transaction.
        per_request = _per_request(
            [network],
            len(good),
            onchain_before,
            storage_before,
            network.total_storage_bytes(),
        )
        values = {
            "sim_goodput_tps": len(good) / ((finished_ms - started_ms) / 1000.0),
            **_end_to_end_latency(latencies),
            "sim_unavailable_ms": rules.longest_gap_ms(
                [s.completed_ms for s in good], started_ms, finished_ms
            ),
            **per_request,
            **_network_counts([network]),
            **_stage_waits(
                network, [(s.value.tid, s.submitted_ms, s.completed_ms) for s in good]
            ),
            **_latency_values("views.write_ms", latencies),
            "views.merge_tx_per_req": per_request["onchain_tx_per_req"] - 1.0,
            "workload.requests": attempted,
        }
        _check(len(samples) == attempted, "a request was never submitted")
        _check_network(network)
        _check_view(network, manager, f"V_{topology.dispatching_nodes[0]}")
        _check_items(network, traces)
    return Outcome(attempted, len(good), values)


def _check_view(network: FabricNetwork, manager: Any, view: str) -> None:
    """Prop 4.1 on one view: a sample of what the owner serves is sound,
    the owner's transaction list omits nothing, and an irrevocable
    view's on-chain entries are exactly that list.

    The view must be one without historical-access grants: those join a
    view out of band, and the soundness check would call them foreign.
    """
    record = manager.buffer.get(view)
    auditor = network.register_user("e2e-auditor")
    manager.grant_access(view, auditor.user_id)
    gateway = Gateway(network, auditor)
    sample = record.tids[:: max(1, len(record.tids) // SOUNDNESS_SAMPLE)]
    result = ViewReader(auditor, gateway).read_view(manager, view, tids=sample)
    _check(set(result.secrets) == set(sample), f"view {view}: entries missing")
    verifier = ViewVerifier(gateway)
    verifier.verify_soundness(
        view, record.predicate, result, manager.concealment
    ).assert_ok()
    verifier.verify_completeness(view, record.predicate, set(record.tids)).assert_ok()
    if record.mode is ViewMode.IRREVOCABLE:
        stored = gateway.query("viewstorage", "get_view", {"view": view})
        _check(
            set(stored) == set(record.tids),
            f"view {view}: on-chain entries differ from the owner's list",
        )


def _check_items(network: FabricNetwork, traces: Sequence[Sequence[Any]]) -> None:
    """Every item sits where the last request of its trace left it."""
    for trace in traces:
        holder: dict[str, str] = {}
        for request in trace:
            holder[request.item] = request.receiver
        for item, expected in holder.items():
            record = network.query("supply", "get_item", {"item": item})
            _check(
                record is not None and record["holder"] == expected,
                f"item {item} is not held by {expected}",
            )


def closed_wl1_hr(ctx: Any, seed: int, scale: float) -> Outcome:
    """The paper's Fig 4/5 headline: 64 clients on hash-revocable views."""
    return _closed_views(
        ctx, seed, HashBasedManager, ViewMode.REVOCABLE, 64, _scaled(600, scale, 3)
    )


def closed_wl1_ei(ctx: Any, seed: int, scale: float) -> Outcome:
    """32 clients on encryption-irrevocable views without TLC: two
    on-chain transactions per request, AES and ViewStorage merges."""
    return _closed_views(
        ctx,
        seed,
        EncryptionBasedManager,
        ViewMode.IRREVOCABLE,
        32,
        _scaled(300, scale, 3),
    )


# -- closed loop: the cross-chain 2PC baseline ---------------------------------------------


def closed_wl1_2pc(ctx: Any, seed: int, scale: float) -> Outcome:
    """The cross-chain 2PC baseline: a main chain plus one chain per
    view, and one identity per client per chain — mostly key generation."""
    clients, requests = _scaled(24, scale, 2), 75
    with ctx.phase("setup"):
        env = Environment()
        topology = wl1_topology()
        deployment = CrossChainDeployment(
            env, topology.nodes, config=benchmark_config()
        )
        identities = [
            deployment.register_user(f"client-{i}") for i in range(clients)
        ]
        with ctx.span("workload.generate"):
            traces = _wl1_traces(seed, clients, requests)
            offsets = loadgen.client_start_offsets(seed, clients)
        networks = [deployment.main, *deployment.view_chains.values()]
        storage_before = deployment.total_storage_bytes()

    submitted: list[Any] = []

    def submit(client: int, request: Any, _done: dict[int, Any]):
        submitted.append(request)
        return deployment.submit_request(identities[client], request)

    with ctx.phase("run"):
        started_ms = env.now
        samples = loadgen.drive_closed_loop(
            env, traces, offsets, submit, BATCH_SIZE
        )
        finished_ms = env.now

    with ctx.phase("gate"):
        attempted = sum(len(trace) for trace in traces)
        good = [s for s in samples if s.value.committed]
        _check(len(samples) == attempted, "a request was never submitted")
        for network in networks:
            _check_network(network)
        for request, sample in list(zip(submitted, samples))[::10]:
            deployment.verify_atomicity(
                sample.value,
                [v for v in request.access_list if v in deployment.view_chains],
            )
        _check(
            deployment.metrics.committed.value == len(good),
            "the deployment's commit count differs from the clients'",
        )
        storage_after = deployment.total_storage_bytes()

    latencies = [s.completed_ms - s.submitted_ms for s in good]
    values = {
        "sim_goodput_tps": len(good) / ((finished_ms - started_ms) / 1000.0),
        **_end_to_end_latency(latencies),
        "sim_unavailable_ms": rules.longest_gap_ms(
            [s.completed_ms for s in good], started_ms, finished_ms
        ),
        **_per_request(networks, len(good), 0, storage_before, storage_after),
        **_network_counts(networks),
        "baseline.chains": len(networks),
        "baseline.crosschain_tx_per_req": (
            deployment.metrics.crosschain_txs.value / len(good)
        ),
        "baseline.mainchain_tx_per_req": (
            deployment.main.metrics.onchain_txs.value / len(good)
        ),
        "baseline.aborted": deployment.metrics.aborted.value,
        "workload.requests": attempted,
    }
    return Outcome(attempted, len(good), values)


# -- open loop ----------------------------------------------------------------------------


@dataclass
class OpenLoopLeg:
    """One open-loop run reduced to simulated numbers."""

    attempted: int
    succeeded: int
    values: dict[str, float]
    completions_ms: list[float]
    last_due_ms: float


def _measure_open_loop(
    network: FabricNetwork,
    gateway: AsyncGateway,
    requests: Sequence[ServingRequest],
    tid_of: Callable[[ServingRequest], str | None],
) -> OpenLoopLeg:
    """Arrival-anchored numbers of a finished open-loop run.

    Latency runs from the *due* time to the terminal event.  For a
    request with a transaction on chain it splits into three waits that
    sum to it, each of which must be non-negative: due → dispatched by
    the gateway, dispatched → block timestamp, block timestamp →
    terminal event.
    """
    lag = max(r.arrived_ms - r.arrival_ms for r in requests)
    _check(
        lag <= GENERATOR_LAG_LIMIT_MS,
        f"the generator handed a request over {lag:.3f} ms late",
    )
    _check(
        all(r.outcome in ("committed", "aborted", "shed") for r in requests),
        "a request never reached a terminal outcome",
    )
    good = [r for r in requests if r.outcome == "committed"]
    onchain = [(r, tid_of(r)) for r in good]
    onchain = [(r, tid) for r, tid in onchain if tid is not None]
    latencies = [r.completed_ms - r.arrival_ms for r, _tid in onchain]
    gateway_wait = [r.dispatched_ms - r.arrival_ms for r, _tid in onchain]
    _check(min(gateway_wait) >= 0, "a request was dispatched before it was due")
    waits = _stage_waits(
        network, [(tid, r.dispatched_ms, r.completed_ms) for r, tid in onchain]
    )
    due = [r.arrival_ms for r in requests]
    values = {
        "sim_goodput_tps": rules.window_goodput_tps(
            due, [r.outcome == "committed" for r in requests]
        ),
        **_end_to_end_latency(latencies),
        "failed_share": (len(requests) - len(good)) / len(requests),
        "backlog_growth": rules.backlog_growth(
            [r.completed_ms - r.arrival_ms for r in good]
        ),
        **waits,
        **_latency_values("serving.gateway_wait_ms", gateway_wait),
        "serving.batches": len(gateway.batch_sizes),
        "serving.req_per_batch": statistics.fmean(gateway.batch_sizes),
        "serving.queue_peak": gateway.metrics.queue_depth_peak,
        "serving.shed": gateway.metrics.shed,
        "serving.generator_lag_ms_max": lag,
    }
    return OpenLoopLeg(
        attempted=len(requests),
        succeeded=len(good),
        values=values,
        completions_ms=[r.completed_ms for r in good],
        last_due_ms=max(due),
    )


def _check_counters(network: FabricNetwork, requests: Sequence[ServingRequest]) -> None:
    """Every committed bump is in the final state, and nothing else is."""
    for request in requests:
        args = request.payload["args"]
        expected = args["amount"] if request.outcome == "committed" else 0
        found = network.query("counter", "get", {"key": args["key"]})
        _check(
            found == expected,
            f"counter {args['key']} is {found}, expected {expected}",
        )


def _payload_tid(request: ServingRequest) -> str | None:
    return request.payload.get("tid")


def _counter_channel(config: NetworkConfig) -> tuple[FabricNetwork, NetworkTarget]:
    network = build_network(config)
    network.install_chaincode(CounterContract())
    return network, NetworkTarget(network, network.register_user("bencher"))


def open_counter_ladder(ctx: Any, seed: int, scale: float) -> Outcome:
    """Six offered rates, each against a fresh channel."""
    rungs: dict[int, OpenLoopLeg] = {}
    networks: list[FabricNetwork] = []
    per_request: dict[str, float] = {}
    for rate in LADDER_RATES:
        with ctx.phase("setup"):
            network, target = _counter_channel(_serving_config())
            networks.append(network)
            with ctx.span("workload.generate"):
                requests = loadgen.counter_schedule(
                    seed,
                    rate,
                    _scaled(LADDER_RUNG_REQUESTS, scale, 8),
                    SESSIONS,
                    network.env.now,
                    f"r{rate}",
                )
            storage_before = network.total_storage_bytes()
        with ctx.phase("run"):
            gateway = loadgen.drive_open_loop(target, requests, SESSIONS, ADMISSION)
        with ctx.phase("gate"):
            _check_network(network)
            _check_counters(network, requests)
            rungs[rate] = leg = _measure_open_loop(
                network, gateway, requests, _payload_tid
            )
        if rate == REFERENCE_RATE:
            per_request = _per_request(
                [network], leg.succeeded, 0, storage_before, network.total_storage_bytes()
            )
    reference = rungs[REFERENCE_RATE]
    sustained = [
        (
            float(rate),
            rules.rung_sustained(
                leg.values["failed_share"],
                leg.values["sim_p99_ms"],
                leg.values["backlog_growth"],
            ),
        )
        for rate, leg in rungs.items()
    ]
    values = {
        # Counts are over all six channels; the end-to-end numbers and the
        # stage waits are the reference rung's.
        **_network_counts(networks),
        **per_request,
        **reference.values,
        "sim_unavailable_ms": rules.longest_gap_ms(
            reference.completions_ms, 0.0, reference.last_due_ms
        ),
        "sim_max_rate_tps": rules.max_sustained_rate(sustained),
        "workload.requests": sum(leg.attempted for leg in rungs.values()),
    }
    legs = [leg.values for leg in rungs.values()]
    batches = sum(leg["serving.batches"] for leg in legs)
    values.update(
        {
            "serving.batches": batches,
            "serving.req_per_batch": sum(
                leg["serving.batches"] * leg["serving.req_per_batch"] for leg in legs
            )
            / batches,
            "serving.shed": sum(leg["serving.shed"] for leg in legs),
            "serving.queue_peak": max(leg["serving.queue_peak"] for leg in legs),
            "serving.generator_lag_ms_max": max(
                leg["serving.generator_lag_ms_max"] for leg in legs
            ),
        }
    )
    for rate, leg in rungs.items():
        values[f"serving.rung.{rate}.p50_ms"] = leg.values["sim_p50_ms"]
        values[f"serving.rung.{rate}.p99_ms"] = leg.values["sim_p99_ms"]
        values[f"serving.rung.{rate}.goodput_tps"] = leg.values["sim_goodput_tps"]
        values[f"serving.rung.{rate}.failed_share"] = leg.values["failed_share"]
    return Outcome(
        reference.attempted,
        reference.succeeded,
        values,
        completed=sum(leg.succeeded for leg in rungs.values()),
    )


def open_counter_chaos(ctx: Any, seed: int, scale: float) -> Outcome:
    """Counter bumps at 50 tps through real Raft and durable peers while
    messages are lost, the leader crashes and a peer crashes."""
    duration_ms = CHAOS_SECONDS * scale * 1000.0
    outage_ms = min(5_000.0, duration_ms / 8)
    plan = FaultPlan(
        seed=seed,
        retry=RetryPolicy(timeout_ms=2_000.0),
        messages=(MessageFaultRule(channel="client_to_orderer", drop=0.02),),
        events=(
            FaultEvent("crash_leader", at_ms=duration_ms * 0.375, for_ms=outage_ms),
            FaultEvent(
                "crash_peer", at_ms=duration_ms * 0.75, for_ms=outage_ms, target=1
            ),
        ),
    )
    with ctx.phase("setup"):
        network, target = _counter_channel(
            _serving_config(use_raft=True, storage_backend="memory")
        )
        injector = FaultInjector(network, plan)
        with ctx.span("workload.generate"):
            requests = loadgen.counter_schedule(
                seed,
                CHAOS_RATE,
                _scaled(CHAOS_RATE * CHAOS_SECONDS, scale, 8),
                SESSIONS,
                network.env.now,
                "chaos",
            )
        first_fault_ms = injector.attached_at + plan.events[0].at_ms
        storage_before = network.total_storage_bytes()
    with ctx.phase("run"):
        gateway = loadgen.drive_open_loop(target, requests, SESSIONS, ADMISSION)
    with ctx.phase("heal"):
        # Recovery and the post-heal invariant check are the program's
        # work on this workload, not only the benchmark's gate.
        injector.heal()
        _check_network(network)
    with ctx.phase("gate"):
        _check_counters(network, requests)
        leg = _measure_open_loop(network, gateway, requests, _payload_tid)
    values = {
        **_network_counts([network]),
        **_per_request(
            [network], leg.succeeded, 0, storage_before, network.total_storage_bytes()
        ),
        **leg.values,
        "sim_unavailable_ms": rules.longest_gap_ms(
            leg.completions_ms, first_fault_ms, leg.last_due_ms
        ),
        "workload.requests": leg.attempted,
    }
    return Outcome(leg.attempted, leg.succeeded, values)


def open_viewmix_er(ctx: Any, seed: int, scale: float) -> Outcome:
    """Invokes, bounded view reads and revoke/re-grant pairs at 40 tps
    through the view manager, on encryption-revocable views."""
    views = [f"V{i}" for i in range(VIEWMIX_VIEWS)]
    with ctx.phase("setup"):
        network = build_network(_serving_config(key_bits=1024))
        manager = EncryptionBasedManager(
            Gateway(network, network.register_user("view-owner"))
        )
        principals: dict[str, list[str]] = {}
        for view in views:
            manager.create_view(view, AttributeEquals("view", view), ViewMode.REVOCABLE)
            principals[view] = [
                f"{view}-reader{i}" for i in range(VIEWMIX_PRINCIPALS_PER_VIEW)
            ]
            for principal in principals[view]:
                network.register_user(principal)
                manager.grant_access(view, principal)
        with ctx.span("workload.generate"):
            plan = loadgen.view_mix_schedule(
                seed,
                VIEWMIX_RATE,
                _scaled(VIEWMIX_RATE * VIEWMIX_SECONDS, scale, 40),
                SESSIONS,
                network.env.now,
                views,
                principals,
            )
        requests = plan.requests
        onchain_before = network.metrics.onchain_txs.value
        storage_before = network.total_storage_bytes()
    with ctx.phase("run"):
        started_ms = network.env.now
        gateway = loadgen.drive_open_loop(
            ViewManagerTarget(manager), requests, SESSIONS, ADMISSION
        )
    with ctx.phase("gate"):
        def tid_of(request: ServingRequest) -> str | None:
            if request.kind == "invoke":
                return request.payload["tid"]
            return None if request.kind == "audit" else request.detail.tid

        def latencies_of(*kinds: str) -> list[float]:
            return [
                r.completed_ms - r.arrival_ms
                for r in requests
                if r.kind in kinds and r.outcome == "committed"
            ]

        leg = _measure_open_loop(network, gateway, requests, tid_of)
        # Read before the view check below adds its own grant transaction.
        values = {
            **_network_counts([network]),
            **_per_request(
                [network],
                leg.succeeded,
                onchain_before,
                storage_before,
                network.total_storage_bytes(),
            ),
            **leg.values,
            "sim_unavailable_ms": rules.longest_gap_ms(
                leg.completions_ms, started_ms, leg.last_due_ms
            ),
            **_latency_values("views.write_ms", latencies_of("invoke")),
            **_latency_values("views.read_ms", latencies_of("audit")),
            "views.access_ms_p99": rules.percentile(
                latencies_of("grant", "revoke") or [0.0], 0.99
            ),
            "views.merge_tx_per_req": 0.0,
            "workload.requests": leg.attempted,
        }
        _check(
            not any(r.outcome == "aborted" for r in requests),
            "a request was a policy error although served in order",
        )
        _check_network(network)
        for view in views:
            _check(
                set(manager.buffer.get(view).authorized) == plan.authorized[view],
                f"view {view}: access list differs from the schedule's",
            )
        _check_view(network, manager, views[0])
    return Outcome(leg.attempted, leg.succeeded, values)


WORKLOADS: dict[str, Callable[[Any, int, float], Outcome]] = {
    "closed_wl1_hr": closed_wl1_hr,
    "closed_wl1_ei": closed_wl1_ei,
    "closed_wl1_2pc": closed_wl1_2pc,
    "open_counter_ladder": open_counter_ladder,
    "open_viewmix_er": open_viewmix_er,
    "open_counter_chaos": open_counter_chaos,
}
