"""Client fleets and measurement for the paper's experiments.

The client model follows §6.3: each client groups ``batch_size`` (25)
requests into a batch, submits the batch's requests concurrently, waits
for all of them to commit, then moves to the next batch.  Throughput is
committed requests per second of *simulated* time; latency is the
per-request submit→commit time the network records.

``run_view_workload`` drives the four LedgerView methods (with or
without the TxListContract); ``run_baseline_workload`` drives the
cross-chain 2PC baseline; ``run_view_scaling`` produces the Fig 10/11
sweeps where the number of views (and each transaction's view
membership) is varied synthetically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro import build_network
from repro.baseline.multichain import CrossChainDeployment
from repro.errors import LedgerViewError
from repro.fabric.config import NetworkConfig, benchmark_config
from repro.fabric.network import FabricNetwork, Gateway
from repro.fabric.peer import ValidationCode
from repro.sim import Environment
from repro.views.encryption_based import EncryptionBasedManager
from repro.views.hash_based import HashBasedManager
from repro.views.manager import ViewManager
from repro.views.predicates import AttributeEquals, Everything, ParticipantPredicate
from repro.views.types import ViewMode
from repro.workload.generator import SupplyChainWorkload, TransferRequest
from repro.workload.topology import SupplyChainTopology

#: method label → (manager class, view mode)
METHODS: dict[str, tuple[type, ViewMode]] = {
    "ER": (EncryptionBasedManager, ViewMode.REVOCABLE),
    "EI": (EncryptionBasedManager, ViewMode.IRREVOCABLE),
    "HR": (HashBasedManager, ViewMode.REVOCABLE),
    "HI": (HashBasedManager, ViewMode.IRREVOCABLE),
}


@dataclass
class RunResult:
    """Measurements of one benchmark run."""

    label: str
    clients: int
    attempted: int
    committed: int
    duration_ms: float
    tps: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    onchain_txs: int
    storage_bytes: int
    timed_out: bool = False
    #: Host wall-clock spent driving the run's client traffic (seconds)
    #: and the resulting committed-requests-per-host-second rate;
    #: ``tps`` above is simulated-time throughput.
    host_wall_s: float = 0.0
    host_tps: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

    def as_row(self) -> dict[str, Any]:
        """Flat dict for the report printer."""
        from repro.bench.report import latency_cells

        row = {
            "label": self.label,
            "clients": self.clients,
            "committed": self.committed,
            "tps": round(self.tps, 1),
            **latency_cells(self, percentiles=("latency_ms", "p95_ms")),
            "onchain_txs": self.onchain_txs,
            "storage_kib": round(self.storage_bytes / 1024, 1),
        }
        if self.host_tps:
            row["host_tps"] = round(self.host_tps, 1)
        if self.timed_out:
            row["timed_out"] = True
        return row


#: Wall-clock seconds per pipeline phase, accumulated across every run
#: this process executes (see :class:`repro.fabric.network.PhaseWallClock`).
#: ``python -m repro.bench`` prints this as its closing table.
PHASE_TOTALS: dict[str, float] = {}


def _record_phases(network: FabricNetwork, result: RunResult) -> None:
    """Attach a network's per-phase wall-clock to ``result`` and the totals."""
    result.extra["phase_wall_s"] = network.phase_wall.summary()
    outcomes = network.phase_wall.commit_outcomes()
    if outcomes["totals"]["committed"] or outcomes["totals"]["aborted"]:
        result.extra["commit_outcomes"] = outcomes
    if network.mvcc_retries:
        result.extra["mvcc_retries"] = network.mvcc_retries
    if network.storage is not None:
        result.extra["storage"] = network.storage.summary()
    if network.pbft is not None:
        result.extra["pbft"] = {
            "replicas": len(network.pbft.nodes),
            "f": network.pbft.f,
            "block_certs": len(network.block_certs),
            **network.pbft.stats,
        }
    network.phase_wall.merge_into(PHASE_TOTALS)


def build_view_setup(
    method: str,
    topology: SupplyChainTopology,
    config: NetworkConfig | None = None,
    use_txlist: bool = False,
    txlist_flush_interval_ms: float = 5_000.0,
    pdc_collection: str | None = None,
) -> tuple[Environment, FabricNetwork, ViewManager]:
    """Build a network plus a view manager with one view per node.

    ``pdc_collection`` switches the manager to the PDC-backed variant
    (Fig 13's "revocable view over private data collection").
    """
    if method not in METHODS:
        raise LedgerViewError(
            f"unknown method {method!r}; expected one of {sorted(METHODS)}"
        )
    manager_cls, mode = METHODS[method]
    env = Environment()
    network = build_network(config or benchmark_config(), env=env)
    owner = network.register_user("view-owner")
    if pdc_collection is not None:
        from repro.fabric.private_data import PrivateDataManager
        from repro.views.pdc_backed import PDCBackedHashManager

        pdc = PrivateDataManager(network)
        pdc.create_collection(pdc_collection, {"org1", "org2"})
        manager = PDCBackedHashManager(
            Gateway(network, owner),
            pdc=pdc,
            collection=pdc_collection,
            use_txlist=use_txlist,
            txlist_flush_interval_ms=txlist_flush_interval_ms,
        )
    else:
        manager = manager_cls(
            Gateway(network, owner),
            use_txlist=use_txlist,
            txlist_flush_interval_ms=txlist_flush_interval_ms,
        )
    for node in topology.nodes:
        manager.create_view(f"V_{node}", ParticipantPredicate(node), mode)
    return env, network, manager


def _client_traces(
    topology: SupplyChainTopology,
    clients: int,
    items_per_client: int,
    seed: int,
) -> list[list[TransferRequest]]:
    """One interleaved request trace per client, disjoint item spaces."""
    traces = []
    for client in range(clients):
        workload = SupplyChainWorkload(
            topology,
            items=items_per_client,
            seed=seed + client,
            item_prefix=f"c{client}-",
        )
        traces.append(workload.generate_interleaved())
    return traces


def _batches(trace: list[TransferRequest], batch_size: int):
    """Cut the trace into concurrent batches of at most ``batch_size``.

    A batch never contains two requests for the same item: consecutive
    hops of one item must commit in order (the chaincode's holder check
    would reject a transfer endorsed before its predecessor committed),
    so an item repeat closes the current batch early.
    """
    batch: list[TransferRequest] = []
    items_in_batch: set[str] = set()
    for request in trace:
        if len(batch) >= batch_size or request.item in items_in_batch:
            yield batch
            batch, items_in_batch = [], set()
        batch.append(request)
        items_in_batch.add(request.item)
    if batch:
        yield batch


def run_view_workload(
    method: str,
    topology: SupplyChainTopology,
    clients: int,
    items_per_client: int = 25,
    batch_size: int = 25,
    config: NetworkConfig | None = None,
    use_txlist: bool = False,
    txlist_flush_interval_ms: float = 5_000.0,
    seed: int = 7,
    horizon_ms: float | None = None,
    max_requests_per_client: int | None = None,
    pdc_collection: str | None = None,
    track_state_roots: bool = False,
    fault_plan=None,
) -> RunResult:
    """Run the supply-chain workload against one LedgerView method.

    ``max_requests_per_client`` truncates each client's trace — the
    measured rates stabilise after a few batches, so shorter runs keep
    benchmark wall-clock time in check without changing the shapes.
    ``track_state_roots`` makes every committed block record a state root.
    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) runs the whole
    workload under fault injection: the plan's message faults, crashes,
    and retry policy apply for the duration, the network is healed
    afterwards, the safety invariants are asserted, and the injector's
    counters land in ``result.extra["faults"]``.
    """
    env, network, manager = build_view_setup(
        method,
        topology,
        config=config,
        use_txlist=use_txlist,
        txlist_flush_interval_ms=txlist_flush_interval_ms,
        pdc_collection=pdc_collection,
    )
    network.track_state_roots = track_state_roots
    injector = monitor = None
    if fault_plan is not None:
        from repro.faults import FaultInjector, InvariantMonitor

        injector = FaultInjector(network, fault_plan)
        monitor = InvariantMonitor(network)
    traces = _client_traces(topology, clients, items_per_client, seed)
    if max_requests_per_client is not None:
        traces = [trace[:max_requests_per_client] for trace in traces]
    valid = {"count": 0}
    setup_onchain = network.metrics.onchain_txs.value

    def client_process(trace: list[TransferRequest]):
        tid_of_index: dict[int, str] = {}
        for batch in _batches(trace, batch_size):
            events = []
            for request in batch:
                extra_views = {}
                if request.history:
                    history_tids = [
                        tid_of_index[h]
                        for h in request.history
                        if h in tid_of_index
                    ]
                    if history_tids:
                        extra_views[f"V_{request.receiver}"] = history_tids
                events.append(
                    manager.invoke_with_secret_async(
                        request.fn,
                        request.args,
                        request.public,
                        request.secret,
                        extra_views=extra_views,
                    )
                )
            outcomes = yield env.all_of(events)
            for request, outcome in zip(batch, outcomes):
                if outcome is None:
                    continue
                tid_of_index[request.index] = outcome.tid
                if outcome.notice.code is ValidationCode.VALID:
                    valid["count"] += 1

    started = env.now
    host_started = perf_counter()
    client_events = [env.process(client_process(trace)) for trace in traces]
    done = env.all_of(client_events)
    timed_out = False
    if horizon_ms is not None:
        env.run(until=env.any_of([done, env.timeout(horizon_ms)]))
        timed_out = not done.processed
    else:
        env.run(until=done)
    host_wall = max(perf_counter() - host_started, 1e-9)

    attempted = sum(len(trace) for trace in traces)
    duration = max(env.now - started, 1e-9)
    latencies = network.metrics.latencies_ms
    summary = latencies.summary() if len(latencies) else None
    result = RunResult(
        label=f"{method}{'+TLC' if use_txlist else ''}",
        clients=clients,
        attempted=attempted,
        committed=valid["count"],
        duration_ms=duration,
        tps=valid["count"] / (duration / 1000.0),
        latency_mean_ms=summary.mean if summary else 0.0,
        latency_p50_ms=summary.p50 if summary else 0.0,
        latency_p95_ms=summary.p95 if summary else 0.0,
        onchain_txs=network.metrics.onchain_txs.value - setup_onchain,
        storage_bytes=network.total_storage_bytes(),
        timed_out=timed_out,
        host_wall_s=host_wall,
        host_tps=valid["count"] / host_wall,
        extra={"invalid_txs": network.metrics.invalid_txs.value},
    )
    if injector is not None:
        injector.heal()
        monitor.check()
        result.extra["faults"] = injector.summary()
    _record_phases(network, result)
    return result


def run_baseline_workload(
    topology: SupplyChainTopology,
    clients: int,
    items_per_client: int = 25,
    batch_size: int = 25,
    config: NetworkConfig | None = None,
    seed: int = 7,
    horizon_ms: float | None = None,
    max_requests_per_client: int | None = None,
) -> RunResult:
    """Run the same workload against the cross-chain 2PC baseline.

    The baseline registers one identity per client per chain; their
    keypairs are drawn only if something signs or seals with them.
    """
    env = Environment()
    deployment = CrossChainDeployment(
        env, topology.nodes, config=config or benchmark_config()
    )
    traces = _client_traces(topology, clients, items_per_client, seed)
    if max_requests_per_client is not None:
        traces = [trace[:max_requests_per_client] for trace in traces]
    identities = [
        deployment.register_user(f"client-{i}") for i in range(clients)
    ]
    committed = {"count": 0}

    def client_process(client_index: int, trace: list[TransferRequest]):
        ids = identities[client_index]
        for batch in _batches(trace, batch_size):
            events = [
                deployment.submit_request(ids, request) for request in batch
            ]
            results = yield env.all_of(events)
            committed["count"] += sum(
                1 for r in results if r is not None and r.committed
            )

    started = env.now
    client_events = [
        env.process(client_process(i, trace)) for i, trace in enumerate(traces)
    ]
    done = env.all_of(client_events)
    timed_out = False
    if horizon_ms is not None:
        env.run(until=env.any_of([done, env.timeout(horizon_ms)]))
        timed_out = not done.processed
    else:
        env.run(until=done)

    attempted = sum(len(trace) for trace in traces)
    duration = max(env.now - started, 1e-9)
    latencies = deployment.metrics.latencies_ms
    summary = latencies.summary() if len(latencies) else None
    onchain = deployment.main.metrics.onchain_txs.value + sum(
        chain.metrics.onchain_txs.value
        for chain in deployment.view_chains.values()
    )
    result = RunResult(
        label="baseline-2PC",
        clients=clients,
        attempted=attempted,
        committed=committed["count"],
        duration_ms=duration,
        tps=committed["count"] / (duration / 1000.0),
        latency_mean_ms=summary.mean if summary else 0.0,
        latency_p50_ms=summary.p50 if summary else 0.0,
        latency_p95_ms=summary.p95 if summary else 0.0,
        onchain_txs=onchain,
        storage_bytes=deployment.total_storage_bytes(),
        timed_out=timed_out,
        extra={
            "crosschain_txs": deployment.metrics.crosschain_txs.value,
            "aborted": deployment.metrics.aborted.value,
        },
    )
    # The baseline runs one network per view chain plus the main chain;
    # report their combined per-phase wall-clock.
    phases: dict[str, float] = {}
    deployment.main.phase_wall.merge_into(phases)
    for chain in deployment.view_chains.values():
        chain.phase_wall.merge_into(phases)
    result.extra["phase_wall_s"] = {
        phase: round(total, 4) for phase, total in sorted(phases.items())
    }
    for phase, total in phases.items():
        PHASE_TOTALS[phase] = PHASE_TOTALS.get(phase, 0.0) + total
    return result


def run_view_scaling(
    n_views: int,
    inclusion: str,
    method: str = "HR",
    clients: int = 64,
    requests_per_client: int = 50,
    batch_size: int = 25,
    config: NetworkConfig | None = None,
    use_txlist: bool = False,
    txlist_flush_interval_ms: float = 5_000.0,
    track_state_roots: bool = False,
) -> RunResult:
    """The Fig 10/11 sweep: vary view count and per-transaction membership.

    ``inclusion`` is ``"all"`` (every transaction joins every view —
    Fig 10) or ``"single"`` (each transaction joins exactly one view,
    round-robin — Fig 11).
    """
    if inclusion not in ("all", "single"):
        raise LedgerViewError("inclusion must be 'all' or 'single'")
    manager_cls, mode = METHODS[method]
    env = Environment()
    network = build_network(config or benchmark_config(), env=env)
    network.track_state_roots = track_state_roots
    owner = network.register_user("view-owner")
    manager = manager_cls(
        Gateway(network, owner),
        use_txlist=use_txlist,
        txlist_flush_interval_ms=txlist_flush_interval_ms,
    )
    for v in range(n_views):
        predicate = (
            Everything() if inclusion == "all" else AttributeEquals("vslot", v)
        )
        manager.create_view(f"V{v:03d}", predicate, mode)
    valid = {"count": 0}
    setup_onchain = network.metrics.onchain_txs.value

    def client_process(client_index: int):
        counter = 0
        for start in range(0, requests_per_client, batch_size):
            events = []
            for _ in range(min(batch_size, requests_per_client - start)):
                item = f"it-{client_index}-{counter}"
                counter += 1
                public = {
                    "item": item,
                    "from": None,
                    "to": "origin",
                    "vslot": (client_index + counter) % max(n_views, 1),
                }
                events.append(
                    manager.invoke_with_secret_async(
                        "create_item",
                        {"item": item, "owner": "origin"},
                        public,
                        b'{"type":"phone","amount":10,"price_cents":19900}',
                    )
                )
            outcomes = yield env.all_of(events)
            valid["count"] += sum(
                1
                for o in outcomes
                if o is not None and o.notice.code is ValidationCode.VALID
            )

    started = env.now
    done = env.all_of(
        [env.process(client_process(i)) for i in range(clients)]
    )
    env.run(until=done)
    duration = max(env.now - started, 1e-9)
    latencies = network.metrics.latencies_ms
    summary = latencies.summary() if len(latencies) else None
    result = RunResult(
        label=f"{method}/{inclusion}/{n_views}v",
        clients=clients,
        attempted=clients * requests_per_client,
        committed=valid["count"],
        duration_ms=duration,
        tps=valid["count"] / (duration / 1000.0),
        latency_mean_ms=summary.mean if summary else 0.0,
        latency_p50_ms=summary.p50 if summary else 0.0,
        latency_p95_ms=summary.p95 if summary else 0.0,
        onchain_txs=network.metrics.onchain_txs.value - setup_onchain,
        storage_bytes=network.total_storage_bytes(),
        extra={"views": n_views, "inclusion": inclusion},
    )
    _record_phases(network, result)
    return result
