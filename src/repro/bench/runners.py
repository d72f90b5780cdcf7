"""One entry point per paper figure (Figs 4-13).

Each ``figure*`` function runs the experiment on the simulated network,
prints the same series the paper plots, and returns the rows so the
benchmark suite can assert the qualitative shape (who wins, by roughly
what factor, where the knees are).  Every closed-loop series comes from
:mod:`repro.bench.harness`'s one client fleet; Figs 6 and 9 also submit
baseline requests one at a time, and Fig 12 times verification.  The
shared Fig 4/5 sweep runs once per process for each scale and
``REPRO_*`` selector setting, and both figures read that run.
``benchmarks/figures_expected_smoke.json`` pins every row at the
``--smoke`` scale (``python3 benchmarks/check_e2e_drift.py figures``).

Scale control: set ``REPRO_BENCH_SCALE`` (e.g. ``0.25``) to shrink the
client counts and per-client request budgets proportionally for quick
smoke runs; ``1.0`` (default) reproduces the full sweeps.  Anything but
a positive, finite number raises :class:`repro.errors.ConfigError`.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from typing import Any

from repro.baseline.multichain import CrossChainDeployment
from repro.bench.harness import (
    RunResult,
    _create_item,
    _fleet,
    _result,
    run_baseline_workload,
    run_view_scaling,
    run_view_workload,
)
from repro.bench.report import latency_cells, print_series
from repro.errors import ConfigError
from repro.fabric.config import MULTI_REGION, SINGLE_REGION, benchmark_config
from repro.sim import Environment
from repro.workload.presets import wl1_topology, wl2_topology


def _scale() -> float:
    """``REPRO_BENCH_SCALE`` (default 1.0): a positive, finite number."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError:
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0):
        raise ConfigError(
            f"REPRO_BENCH_SCALE must be a positive, finite number, not {raw!r}"
        )
    return scale


def _scaled(value: int, minimum: int = 1) -> int:
    return max(minimum, round(value * _scale()))


#: Client counts of the Fig 4/5 x-axis.
CLIENT_SWEEP = [8, 16, 24, 32, 48, 64]

#: Per-client request budget for throughput/latency sweeps (the rates
#: stabilise after ~2 batches of 25).
REQUESTS_PER_CLIENT = 75
BASELINE_HORIZON_MS = 400_000.0
#: Fig 8's experiment deadline: long enough for the baseline to finish
#: WL1 (≈55 s of simulated time at 32 clients) but not WL2's heavier
#: request stream (≈72 s) — the paper's "reached a timeout without
#: delivering results".
FIG8_BASELINE_HORIZON_MS = 65_000.0


def _sweep_clients() -> list[int]:
    return [_scaled(c) for c in CLIENT_SWEEP]


def _fig4_5_sweep() -> list[RunResult]:
    """The shared Fig 4 (throughput) / Fig 5 (latency) sweep over WL1,
    run once per scale and ``REPRO_*`` selector setting."""
    selectors = sorted(
        (name, value) for name, value in os.environ.items() if name.startswith("REPRO_")
    )
    return _fig4_5_runs(_scale(), tuple(selectors))


@lru_cache(maxsize=4)
def _fig4_5_runs(scale: float, selectors: tuple) -> list[RunResult]:
    """The arguments only key the cache; the runs read the environment."""
    topology = wl1_topology()
    config = benchmark_config()
    results: list[RunResult] = []
    for clients in _sweep_clients():
        results += _with_baseline(
            topology,
            clients,
            config,
            (("ER", False), ("HR", False), ("HI", False), ("HI", True)),
            BASELINE_HORIZON_MS,
            items_per_client=25,
            max_requests_per_client=_scaled(REQUESTS_PER_CLIENT, 4),
        )
    return results


def _with_baseline(
    topology, clients, config, methods, horizon_ms, **view_kwargs
) -> list[RunResult]:
    """One view run per ``(method, use_txlist)`` of ``methods``, then the
    2PC baseline (full item flows, stopped at ``horizon_ms``)."""
    runs = [
        run_view_workload(
            method, topology, clients=clients, config=config, use_txlist=use_txlist, **view_kwargs
        )
        for method, use_txlist in methods
    ]
    runs.append(
        run_baseline_workload(
            topology,
            clients=clients,
            items_per_client=_scaled(25, 3),
            config=config,
            horizon_ms=horizon_ms,
        )
    )
    return runs


def _tps_row(series: str, result: RunResult, **columns) -> dict[str, Any]:
    """A throughput/latency row: ``series``, ``columns``, tps, mean latency."""
    return {
        "series": series,
        **columns,
        "tps": round(result.tps, 1),
        **latency_cells(result, percentiles=("latency_ms",)),
    }


def figure4() -> list[dict[str, Any]]:
    """Fig 4: transaction rate vs number of clients (WL1)."""
    rows = [
        {
            "series": r.label,
            "clients": r.clients,
            "tps": round(r.tps, 1),
            "committed": r.committed,
            "timed_out": r.timed_out,
        }
        for r in _fig4_5_sweep()
    ]
    print_series(
        "Fig 4 — throughput (requests/s) vs clients, WL1",
        rows,
        note=(
            "Paper: revocable & irrevocable+TLC plateau ~800 TPS past 48 "
            "clients; irrevocable ~150 TPS; baseline <70 TPS peaking at 24 "
            "clients, unresponsive beyond 48."
        ),
    )
    return rows


def figure5() -> list[dict[str, Any]]:
    """Fig 5: per-request latency vs number of clients (WL1)."""
    rows = [
        {
            "series": r.label,
            "clients": r.clients,
            **latency_cells(r, percentiles=("latency_ms", "p50_ms", "p95_ms")),
        }
        for r in _fig4_5_sweep()
    ]
    print_series(
        "Fig 5 — latency (ms) vs clients, WL1",
        rows,
        note=(
            "Paper: irrevocable > revocable; TLC brings irrevocable close "
            "to revocable; baseline latency soars with clients."
        ),
    )
    return rows


def figure6(request_counts: tuple[int, ...] = (20, 40, 60, 80, 100)) -> list[dict[str, Any]]:
    """Fig 6: on-chain transactions vs application requests, |V| = 10.

    Every request's transaction belongs to all 10 views, matching the
    paper's setting.  Expected: revocable and TLC ≈ r; irrevocable = 2r;
    baseline = 2·|V|·r.
    """
    config = benchmark_config(latency=SINGLE_REGION)
    views = 10
    rows: list[dict[str, Any]] = []
    for requests in request_counts:
        scaled_requests = _scaled(requests, 2)
        for method, use_txlist in (("HR", False), ("HI", False), ("HI", True)):
            rows.append(
                {
                    "series": f"{method}{'+TLC' if use_txlist else ''}",
                    "requests": scaled_requests,
                    "onchain_txs": _one_client_all_views(
                        method, use_txlist, views, scaled_requests, config
                    ).onchain_txs,
                }
            )
        deployment = _baseline_creates(f"fig6-{requests}", views, scaled_requests, config)
        rows.append(
            {
                "series": "baseline-2PC",
                "requests": scaled_requests,
                "onchain_txs": deployment.metrics.crosschain_txs.value,
            }
        )
    print_series(
        "Fig 6 — on-chain transactions vs application requests (|V| = 10)",
        rows,
        note="Paper: revocable & TLC = r; irrevocable = 2r; baseline = 2·|V|·r.",
    )
    return rows


def _baseline_creates(prefix: str, views: int, requests: int, config) -> CrossChainDeployment:
    """The baseline with ``views`` view chains after ``requests``
    ``create_item`` requests, one at a time, each touching every chain."""
    names = [f"v{i}" for i in range(views)]
    deployment = CrossChainDeployment(Environment(), names, config=config)
    identities = deployment.register_user("client")
    for i in range(requests):
        request = _create_item(i, f"{prefix}-{i}", names[0], {"to": names[0], "access": names})
        deployment.submit_request_sync(identities, request)
    return deployment


def _one_client_all_views(method, use_txlist, views, requests, config) -> RunResult:
    """Figs 6 and 9: one client's ``requests``, each in all ``views``."""
    return run_view_scaling(
        views,
        "all",
        method=method,
        clients=1,
        requests_per_client=requests,
        config=config,
        use_txlist=use_txlist,
        txlist_flush_interval_ms=2_000.0,
    )


def figure7(clients: int = 32) -> list[dict[str, Any]]:
    """Fig 7: single-region vs multi-region deployment (WL1)."""
    topology = wl1_topology()
    clients = _scaled(clients, 2)
    rows = []
    for region_name, latency in (("single", SINGLE_REGION), ("multi", MULTI_REGION)):
        runs = _with_baseline(
            topology,
            clients,
            benchmark_config(latency=latency),
            (("HR", False), ("HI", False)),
            BASELINE_HORIZON_MS,
            items_per_client=25,
            max_requests_per_client=_scaled(REQUESTS_PER_CLIENT, 4),
        )
        rows += [_tps_row(r.label, r, region=region_name) for r in runs]
    print_series(
        "Fig 7 — spatial distribution (single vs multi region), WL1",
        rows,
        note=(
            "Paper: ours drop 20-30% TPS going multi-region, baseline "
            ">40%; latency effect small for ours, significant for baseline."
        ),
    )
    return rows


def figure8(clients: int = 32) -> list[dict[str, Any]]:
    """Fig 8: WL1 (7 nodes) vs WL2 (14 nodes)."""
    clients = _scaled(clients, 2)
    config = benchmark_config()
    rows = []
    for name, topology in (("WL1", wl1_topology()), ("WL2", wl2_topology())):
        # Full item flows (no truncation): WL2's longer paths mean more
        # views per request, which is exactly what drowns the baseline.
        runs = _with_baseline(
            topology,
            clients,
            config,
            (("HR", False), ("HI", True)),
            FIG8_BASELINE_HORIZON_MS,
            items_per_client=_scaled(25, 3),
        )
        rows += [
            {**_tps_row(r.label, r, workload=name), "timed_out": r.timed_out}
            for r in runs
        ]
    print_series(
        "Fig 8 — WL1 (7 nodes / 7 views) vs WL2 (14 nodes / 14 views)",
        rows,
        note=(
            "Paper: workload size barely affects the view methods; the "
            "baseline times out on WL2."
        ),
    )
    return rows


def figure9(view_counts: tuple[int, ...] = (1, 5, 10, 15, 20)) -> list[dict[str, Any]]:
    """Fig 9: storage overhead vs number of views after 40 requests."""
    requests = _scaled(40, 4)
    config = benchmark_config(latency=SINGLE_REGION)
    rows = []
    for views in view_counts:
        for method, use_txlist in (("HR", False), ("HI", False), ("HI", True)):
            result = _one_client_all_views(method, use_txlist, views, requests, config)
            rows.append(
                {
                    "series": f"{method}{'+TLC' if use_txlist else ''}",
                    "views": views,
                    "storage_kib": round(result.storage_bytes / 1024, 1),
                }
            )
        deployment = _baseline_creates(f"fig9-{views}", views, requests, config)
        rows.append(
            {
                "series": "baseline-2PC",
                "views": views,
                "storage_kib": round(deployment.total_storage_bytes() / 1024, 1),
            }
        )
    print_series(
        f"Fig 9 — storage after {requests} requests vs number of views",
        rows,
        note=(
            "Paper: revocable least and flat; TLC below plain irrevocable; "
            "irrevocable grows with views; baseline ~10x (duplication)."
        ),
    )
    return rows


VIEW_SCALING_SWEEP = (1, 10, 25, 50, 100)


def figure10(view_counts: tuple[int, ...] = VIEW_SCALING_SWEEP) -> list[dict[str, Any]]:
    """Fig 10: every transaction is in ALL views; sweep view count."""
    return _view_scaling_figure(
        "all",
        view_counts,
        "Fig 10 — each tx in ALL views",
        "Paper: views 1→100 raises latency ~2.5 s → ~17 s and drops "
        "throughput ~800 → ~80 TPS (bigger payloads, fewer txs/block).",
    )


def figure11(view_counts: tuple[int, ...] = VIEW_SCALING_SWEEP) -> list[dict[str, Any]]:
    """Fig 11: every transaction is in exactly ONE view; sweep view count."""
    return _view_scaling_figure(
        "single",
        view_counts,
        "Fig 11 — each tx in a SINGLE view",
        "Paper: latency stays ~2.5 s and throughput 600-900 TPS across "
        "1→100 views.",
    )


def _view_scaling_figure(inclusion, view_counts, title, note) -> list[dict[str, Any]]:
    rows = []
    for views in view_counts:
        result = run_view_scaling(
            views,
            inclusion,
            method="HR",
            clients=_scaled(64, 2),
            requests_per_client=_scaled(25, 2),
            config=benchmark_config(),
        )
        rows.append(
            {
                "views": views,
                "tps": round(result.tps, 1),
                **latency_cells(result, percentiles=("latency_ms",)),
            }
        )
    print_series(title, rows, note=note)
    return rows

def figure12(tx_counts: tuple[int, ...] = (100, 500, 1000, 2000)) -> list[dict[str, Any]]:
    """Fig 12: soundness/completeness verification time vs #transactions."""
    from repro import build_network
    from repro.fabric.network import Gateway
    from repro.views.hash_based import HashBasedManager
    from repro.views.manager import ViewReader
    from repro.views.predicates import Everything
    from repro.views.types import Concealment, ViewMode
    from repro.views.verification import ViewVerifier

    rows = []
    config = benchmark_config(latency=SINGLE_REGION)
    for count in tx_counts:
        count = _scaled(count, 10)
        network = build_network(config)
        owner = network.register_user("owner")
        bob = network.register_user("bob")
        manager = HashBasedManager(
            Gateway(network, owner), use_txlist=True,
            txlist_flush_interval_ms=1e12,  # flush manually at the end
        )
        manager.create_view("v", Everything(), ViewMode.REVOCABLE)
        env = network.env
        events = [
            manager.invoke_with_secret_async(
                "create_item",
                {"item": f"f12-{count}-{i}", "owner": "n"},
                {"item": f"f12-{count}-{i}", "to": "n"},
                b'{"amount": 1}',
            )
            for i in range(count)
        ]
        env.run(until=env.all_of(events))
        manager.txlist.flush()
        manager.grant_access("v", "bob")
        reader = ViewReader(bob, Gateway(network, bob))
        result = reader.read_view(manager, "v")
        verifier = ViewVerifier(Gateway(network, bob))
        soundness = verifier.verify_soundness(
            "v", Everything(), result, Concealment.HASH
        )
        completeness = verifier.verify_completeness(
            "v", Everything(), set(result.secrets), use_txlist=True
        )
        rows.append(
            {
                "transactions": count,
                "soundness_ms": round(soundness.cost_ms, 1),
                "completeness_ms": round(completeness.cost_ms, 1),
                "sound_ledger_accesses": soundness.ledger_accesses,
                "complete_ledger_accesses": completeness.ledger_accesses,
            }
        )
    print_series(
        "Fig 12 — verification cost vs view size",
        rows,
        note=(
            "Paper: both grow linearly; soundness is much more costly "
            "(one ledger access per transaction vs one TLC list fetch)."
        ),
    )
    return rows


def figure13(clients: int = 32) -> list[dict[str, Any]]:
    """Fig 13: private data collections vs views.

    Three systems: (1) a raw private data collection, (2) a revocable
    view layered over the PDC (our soundness/completeness tests on top
    of hash-on-chain storage), (3) our revocable hash-based view.
    """
    from repro import build_network
    from repro.fabric.peer import ValidationCode
    from repro.fabric.private_data import PrivateDataManager

    clients = _scaled(clients, 2)
    requests_per_client = _scaled(50, 4)
    config = benchmark_config()
    rows = []

    # (1) raw PDC: hash-on-chain, side-DB storage, no view bookkeeping.
    env = Environment()
    network = build_network(config, env=env)
    pdc = PrivateDataManager(network)
    pdc.create_collection("shipments", {"org1", "org2"})
    users = [network.register_user(f"c{i}", organization="org1") for i in range(clients)]
    traces = [
        [_create_item(n, f"pdc-{i}-{n}", "M", {"to": "M"}) for n in range(requests_per_client)]
        for i in range(clients)
    ]
    run = _fleet(
        env,
        traces,
        25,
        lambda client, request: pdc.submit_private(
            users[client], "shipments", request.fn, request.args, request.public, request.secret
        ),
        lambda client, request, notice: notice.code is ValidationCode.VALID,
    )
    raw = _result(
        "private-data-collection",
        traces,
        run,
        network.metrics.latencies_ms,
        network.metrics.onchain_txs.value,
        network.total_storage_bytes(),
    )
    rows.append(_tps_row(raw.label, raw))

    # (2) a revocable view genuinely layered over a PDC: the plaintext
    # is disseminated into collection side stores AND the view layer's
    # soundness/completeness machinery (TLC) runs on top.
    over_pdc = run_view_workload(
        "HR",
        wl1_topology(),
        clients=clients,
        items_per_client=25,
        config=config,
        use_txlist=True,
        max_requests_per_client=requests_per_client,
        pdc_collection="shipments",
    )
    rows.append(_tps_row("revocable-view-over-PDC", over_pdc))

    # (3) our revocable hash-based view.
    hr = run_view_workload(
        "HR",
        wl1_topology(),
        clients=clients,
        items_per_client=25,
        config=config,
        max_requests_per_client=requests_per_client,
    )
    rows.append(_tps_row("hash-revocable-view", hr))
    print_series(
        "Fig 13 — private data collections vs revocable views",
        rows,
        note=(
            "Paper: only a slight performance decrease for views vs raw "
            "PDCs; PDCs lack irrevocability and flexible grant/revoke."
        ),
    )
    return rows
