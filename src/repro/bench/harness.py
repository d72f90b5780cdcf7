"""Client fleets and measurement for the paper's experiments.

The client model follows §6.3: each client groups ``batch_size`` (25)
requests into a batch, submits the batch's requests concurrently, waits
for all of them to commit, then moves to the next batch.  Throughput is
committed requests per second of *simulated* time; latency is the
per-request submit→commit time the network records.

``_fleet`` is that loop, the only one: every run below hands it one
request trace per client plus how to submit and settle a request, and
``_result`` turns what it returns into a :class:`RunResult`.
``run_view_workload`` drives the four LedgerView methods (with or
without the TxListContract); ``run_baseline_workload`` drives the
cross-chain 2PC baseline; ``run_view_scaling`` produces the Fig 10/11
sweeps where the number of views (and each transaction's view
membership) is varied synthetically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

#: The secret part of every synthetic ``create_item`` request.
PAYLOAD = b'{"type":"phone","amount":10,"price_cents":19900}'


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
    extra: dict[str, Any] = field(default_factory=dict)


#: Wall-clock seconds per pipeline phase, accumulated across every run
#: this process executes (see :class:`repro.fabric.network.PhaseWallClock`).
#: ``python -m repro.bench`` prints this as its closing table.
PHASE_TOTALS: dict[str, float] = {}


def _record_phases(networks: list[FabricNetwork], result: RunResult) -> None:
    """Attach the networks' combined per-phase wall-clock to ``result``
    and the totals.

    Commit outcomes, MVCC retries, storage and PBFT counters describe one
    channel, so only a one-network run reports them.
    """
    phases: dict[str, float] = {}
    for network in networks:
        network.phase_wall.merge_into(phases)
    result.extra["phase_wall_s"] = {
        phase: round(total, 4) for phase, total in sorted(phases.items())
    }
    for phase, total in phases.items():
        PHASE_TOTALS[phase] = PHASE_TOTALS.get(phase, 0.0) + total
    if len(networks) > 1:
        return
    (network,) = networks
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


def build_view_setup(
    method: str,
    topology: SupplyChainTopology | list[tuple[str, Any]],
    config: NetworkConfig | None = None,
    use_txlist: bool = False,
    txlist_flush_interval_ms: float = 5_000.0,
    pdc_collection: str | None = None,
) -> tuple[Environment, FabricNetwork, ViewManager]:
    """Build a network plus a view manager and its views.

    ``topology`` is a supply-chain topology (one participant view
    ``V_<node>`` per node) or the views themselves as
    ``(name, predicate)`` pairs.  ``pdc_collection`` switches the
    manager to the PDC-backed variant (Fig 13's "revocable view over
    private data collection").
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
    if isinstance(topology, SupplyChainTopology):
        topology = [(f"V_{node}", ParticipantPredicate(node)) for node in topology.nodes]
    for name, predicate in topology:
        manager.create_view(name, predicate, mode)
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


def _create_item(index: int, item: str, owner: str, public: dict) -> TransferRequest:
    """A ``create_item`` request with no history; ``public`` follows
    ``item`` in the request's public part."""
    return TransferRequest(
        index=index,
        fn="create_item",
        item=item,
        sender=None,
        receiver=owner,
        args={"item": item, "owner": owner},
        public={"item": item, **public},
        secret=PAYLOAD,
    )


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


def _fleet(env, traces, batch_size, submit, settle, horizon_ms=None):
    """Run one closed-loop client per trace; the §6.3 client model.

    Client ``c`` walks ``traces[c]`` through :func:`_batches`: it calls
    ``submit(c, request)`` for each request of a batch (an event whose
    value is the outcome), waits for all of them, then calls
    ``settle(c, request, outcome)``, which says whether the request
    committed.  The run ends when every client is done or, given
    ``horizon_ms``, when that much simulated time has passed.

    Returns ``(committed, duration_ms, timed_out)``.
    """
    committed = 0

    def client(index: int, trace: list[TransferRequest]):
        nonlocal committed
        for batch in _batches(trace, batch_size):
            outcomes = yield env.all_of([submit(index, request) for request in batch])
            for request, outcome in zip(batch, outcomes):
                committed += settle(index, request, outcome)

    started = env.now
    done = env.all_of([env.process(client(i, trace)) for i, trace in enumerate(traces)])
    if horizon_ms is None:
        env.run(until=done)
    else:
        env.run(until=env.any_of([done, env.timeout(horizon_ms)]))
    return committed, max(env.now - started, 1e-9), not done.processed


def _result(label, traces, run, latencies, onchain_txs, storage_bytes, **extra) -> RunResult:
    """A :class:`RunResult` from ``_fleet``'s ``run`` over ``traces`` and
    the run's latency series; ``extra`` becomes ``RunResult.extra``."""
    committed, duration_ms, timed_out = run
    summary = latencies.summary() if len(latencies) else None
    return RunResult(
        label=label,
        clients=len(traces),
        attempted=sum(len(trace) for trace in traces),
        committed=committed,
        duration_ms=duration_ms,
        tps=committed / (duration_ms / 1000.0),
        latency_mean_ms=summary.mean if summary else 0.0,
        latency_p50_ms=summary.p50 if summary else 0.0,
        latency_p95_ms=summary.p95 if summary else 0.0,
        onchain_txs=onchain_txs,
        storage_bytes=storage_bytes,
        timed_out=timed_out,
        extra=extra,
    )


def _view_run(label, env, network, manager, traces, batch_size, horizon_ms=None) -> RunResult:
    """Drive ``traces`` through ``manager`` on ``network``.

    A request whose item has earlier hops also grants the receiver's
    view ``V_<receiver>`` the tids this client got for them.
    """
    setup_onchain = network.metrics.onchain_txs.value
    tids: list[dict[int, str]] = [{} for _ in traces]

    def submit(client: int, request: TransferRequest):
        history = [tids[client][h] for h in request.history if h in tids[client]]
        return manager.invoke_with_secret_async(
            request.fn,
            request.args,
            request.public,
            request.secret,
            extra_views={f"V_{request.receiver}": history} if history else {},
        )

    def settle(client: int, request: TransferRequest, outcome) -> bool:
        if outcome is None:
            return False
        tids[client][request.index] = outcome.tid
        return outcome.notice.code is ValidationCode.VALID

    run = _fleet(env, traces, batch_size, submit, settle, horizon_ms)
    return _result(
        label,
        traces,
        run,
        network.metrics.latencies_ms,
        network.metrics.onchain_txs.value - setup_onchain,
        network.total_storage_bytes(),
    )


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
    label = f"{method}{'+TLC' if use_txlist else ''}"
    result = _view_run(label, env, network, manager, traces, batch_size, horizon_ms)
    result.extra["invalid_txs"] = network.metrics.invalid_txs.value
    if injector is not None:
        injector.heal()
        monitor.check()
        result.extra["faults"] = injector.summary()
    _record_phases([network], result)
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
    run = _fleet(
        env,
        traces,
        batch_size,
        lambda client, request: deployment.submit_request(identities[client], request),
        lambda client, request, outcome: outcome is not None and outcome.committed,
        horizon_ms,
    )
    chains = [deployment.main, *deployment.view_chains.values()]
    result = _result(
        "baseline-2PC",
        traces,
        run,
        deployment.metrics.latencies_ms,
        sum(chain.metrics.onchain_txs.value for chain in chains),
        deployment.total_storage_bytes(),
        crosschain_txs=deployment.metrics.crosschain_txs.value,
        aborted=deployment.metrics.aborted.value,
    )
    _record_phases(chains, result)
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
    views = [
        (f"V{v:03d}", Everything() if inclusion == "all" else AttributeEquals("vslot", v))
        for v in range(n_views)
    ]
    env, network, manager = build_view_setup(
        method,
        views,
        config=config,
        use_txlist=use_txlist,
        txlist_flush_interval_ms=txlist_flush_interval_ms,
    )
    network.track_state_roots = track_state_roots
    traces = [
        [
            _create_item(
                n,
                f"it-{client}-{n}",
                "origin",
                {"from": None, "to": "origin", "vslot": (client + n + 1) % max(n_views, 1)},
            )
            for n in range(requests_per_client)
        ]
        for client in range(clients)
    ]
    result = _view_run(f"{method}/{inclusion}/{n_views}v", env, network, manager, traces, batch_size)
    result.extra.update(views=n_views, inclusion=inclusion)
    _record_phases([network], result)
    return result
