"""The end-to-end benchmark of the LedgerView reproduction.

Three ways to call it, all from the root of a checkout::

    python3 benchmarks/e2e/run.py [--seed N] [--only W] [--scale F]
                                  [--repeats K] [--trace] [--out FILE]
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The first runs the six workloads one after another, each run in a fresh
process, prints every end-to-end metric by name and unit, and writes the
numbers to a JSON file that ``compare`` reads.  The third is the form a
driver calls: one workload, measured for about S seconds, one JSON
object on the last line of standard output (see BENCHMARK.json).

A run that fails its correctness gate prints no numbers and makes this
program exit non-zero.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

import metrics as rules

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: Workloads in the order they run.  ``worker.py`` owns their definitions;
#: naming them here keeps this file free of any import of the program.
WORKLOAD_NAMES = (
    "closed_wl1_hr",
    "closed_wl1_ei",
    "closed_wl1_2pc",
    "open_counter_ladder",
    "open_viewmix_er",
    "open_counter_chaos",
)

#: Scale of a driver run (``--seconds``).  Chosen so that one run of a
#: workload — process start, set-up, run phase, gate — takes 3 to 6
#: seconds here, so that three or four fit the contract's twelve, and so
#: that p99 has at least ten samples beyond it wherever the request
#: count, not the client count, is what scales (the ladder's reference
#: rung gets 1020 requests, the view mix 2142 on-chain operations).
DRIVER_SCALE = {
    "closed_wl1_hr": 0.2,
    "closed_wl1_ei": 0.2,
    "closed_wl1_2pc": 0.2,
    "open_counter_ladder": 0.34,
    "open_viewmix_er": 0.35,
    "open_counter_chaos": 0.25,
}
#: Fewest runs a driver call takes its medians over.
DRIVER_MIN_RUNS = 3
#: Most seconds one invocation of this program may take: the contract
#: gives 3420 s to all driver calls together and 180 s to each.
TOTAL_CAP_S = 3420.0
DRIVER_CALL_CAP_S = 180.0
#: One run of a workload may take this long before it is killed (the
#: longest takes half a minute at scale 1 here).
RUN_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the earlier value by which the metric may worsen before
    #: ``compare`` calls it worse (same seed on both sides).
    bound: float
    #: ``host``: wall clock, median of repeats.  ``sim``: simulated
    #: clock or a count, must repeat exactly.
    clock: str
    #: Workloads that report it; empty means all.
    only: tuple[str, ...] = ()

    def applies(self, workload: str) -> bool:
        return not self.only or workload in self.only


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.10, "host"),
    Metric("host_req_per_s", "req/s", "higher", 0.10, "host"),
    Metric("host_peak_rss_mb", "MiB", "lower", 0.10, "host"),
    Metric("sim_goodput_tps", "req/sim-s", "higher", 0.01, "sim"),
    Metric("sim_p50_ms", "ms", "lower", 0.01, "sim"),
    Metric("sim_p99_ms", "ms", "lower", 0.01, "sim"),
    Metric("failed_share", "fraction", "lower", 0.0, "sim"),
    Metric("sim_max_rate_tps", "req/sim-s", "higher", 0.0, "sim", ("open_counter_ladder",)),
    Metric("sim_unavailable_ms", "ms", "lower", 0.01, "sim", ("open_counter_chaos",)),
    Metric("onchain_tx_per_req", "count", "lower", 0.0, "sim"),
    Metric("storage_bytes_per_req", "bytes", "lower", 0.01, "sim"),
)


#: What a driver call prints with ``--trace 0``: the end-to-end metrics
#: that every workload has and that are never zero.  BENCHMARK.json lists
#: the same names; the rest reach the driver as per-layer metrics.
CONTRACT_END_TO_END = tuple(
    metric for metric in END_TO_END if not metric.only and metric.name != "failed_share"
)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from the way it is named."""
    if name.endswith("_mb"):
        return "MiB"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_tps"):
        return "req/sim-s"
    if name.endswith(("_bytes", ".bytes", "bytes_per_tx")) and "cut_" not in name:
        return "bytes"
    if name.endswith(("_share", "_ratio", "_coverage")):
        return "fraction"
    return "count"


def layer_better(name: str) -> str:
    """Which way a per-layer metric improves.  Most are costs."""
    gains = (
        "goodput_tps",
        "max_rate_tps",
        "tx_per_block",
        "req_per_batch",
        "valid_share",
        "budget_coverage",
    )
    return "higher" if name.endswith(gains) else "lower"


class RunFailed(Exception):
    """A run exited non-zero (its gate failed, or it crashed)."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# -- running the worker ------------------------------------------------------------------


def clean_environment() -> dict[str, str]:
    """The parent's environment without anything that reconfigures the
    program, and with string hashing fixed so that set order — and with
    it every simulated number — does not change from process to process."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, scale: float, trace: bool) -> dict[str, Any]:
    """One run in a fresh process; its result, plus its wall time."""
    started = time.perf_counter()
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--scale",
            repr(scale),
            "--trace",
            str(int(trace)),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=clean_environment(),
        timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RunFailed(
            f"{workload} (seed {seed}) exited with code {done.returncode}",
            done.returncode,
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def check_repeatable(runs: Iterable[dict[str, Any]]) -> None:
    """Every simulated number and count of one (workload, seed, scale)
    must be identical in every run, traced or not."""
    runs = list(runs)
    for other in runs[1:]:
        if other["sim"] != runs[0]["sim"] or other["attempted"] != runs[0]["attempted"]:
            differing = sorted(
                key
                for key in set(runs[0]["sim"]) | set(other["sim"])
                if runs[0]["sim"].get(key) != other["sim"].get(key)
            )
            raise RunFailed(
                f"{runs[0]['workload']}: simulated numbers differ between runs "
                f"of one seed: {differing[:8]}",
                4,
            )


# -- reducing runs to metrics ----------------------------------------------------------------


def end_to_end(workload: str, runs: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """End-to-end metrics of one workload from its untraced runs."""
    out: dict[str, dict[str, Any]] = {}
    for metric in END_TO_END:
        if not metric.applies(workload):
            continue
        if metric.clock == "host":
            values = [run["host"][metric.name] for run in runs]
            out[metric.name] = {
                "value": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "resolved": rules.range_spread(values) <= rules.UNRESOLVED_SPREAD,
            }
        else:
            out[metric.name] = {"value": runs[0]["sim"][metric.name], "resolved": True}
        out[metric.name]["unit"] = metric.unit
    return out


#: Per-layer metrics that are sums over span names of the traced pass:
#: ``metric -> (field, span names)``.  They cover every phase but the
#: gate (set-up, run, and healing a network that had faults injected):
#: what the gate costs is the benchmark's own work, not the program's.
_SPAN_SUMS = {
    "sim.events": ("calls", ("sim.step",)),
    "sim.processes": ("calls", ("sim.process",)),
    "sim.self_s": ("self_s", ("sim.step", "sim.process")),
    "crypto.keygen.calls": ("calls", ("crypto.keygen",)),
    "crypto.keygen.self_s": ("self_s", ("crypto.keygen",)),
    "crypto.aes.calls": ("calls", ("crypto.aes",)),
    "crypto.aes.bytes": ("units", ("crypto.aes",)),
    "crypto.aes.self_s": ("self_s", ("crypto.aes",)),
    "crypto.seal.calls": ("calls", ("crypto.seal",)),
    "crypto.seal.self_s": ("self_s", ("crypto.seal",)),
    "crypto.rsa.calls": ("calls", ("crypto.rsa",)),
    "crypto.rsa.self_s": ("self_s", ("crypto.rsa",)),
    "crypto.hash.calls": ("calls", ("crypto.hash",)),
    "crypto.hash.self_s": ("self_s", ("crypto.hash",)),
    "ledger.serialize.calls": ("calls", ("ledger.serialize",)),
    "ledger.serialize.self_s": ("self_s", ("ledger.serialize", "ledger.size_bytes")),
    "ledger.statedb.ops": ("calls", ("ledger.statedb",)),
    "ledger.statedb.self_s": ("self_s", ("ledger.statedb",)),
    "ledger.append.blocks": ("calls", ("ledger.append",)),
    "ledger.append.self_s": ("self_s", ("ledger.append",)),
    "ledger.state_root.self_s": ("self_s", ("ledger.state_root",)),
    "fabric.endorse.calls": ("calls", ("fabric.endorse",)),
    "fabric.endorse.self_s": ("self_s", ("fabric.endorse", "fabric.assemble")),
    "fabric.order.self_s": ("self_s", ("fabric.order",)),
    "fabric.commit.calls": ("calls", ("fabric.commit",)),
    "fabric.commit.self_s": ("self_s", ("fabric.commit",)),
    "fabric.raft.self_s": ("self_s", ("fabric.raft",)),
    "views.invoke.calls": ("calls", ("views.invoke",)),
    "views.invoke.self_s": ("self_s", ("views.invoke", "views.conceal")),
    "views.query.calls": ("calls", ("views.query",)),
    "views.query.entries": ("units", ("views.query",)),
    "views.query.self_s": ("self_s", ("views.query",)),
    "views.access.calls": ("calls", ("views.access",)),
    "views.access.self_s": ("self_s", ("views.access",)),
    "views.verify.self_s": ("self_s", ("views.verify",)),
    "serving.ingress.self_s": ("self_s", ("serving.ingress",)),
    "serving.bridge.self_s": ("self_s", ("serving.bridge",)),
    "storage.self_s": ("self_s", ("storage.log",)),
    "storage.recover.self_s": ("self_s", ("storage.recover",)),
    "faults.self_s": ("self_s", ("faults.inject", "faults.heal")),
    "faults.check.self_s": ("self_s", ("faults.check",)),
    "baseline.self_s": ("self_s", ("baseline.submit",)),
    "workload.generate.self_s": ("self_s", ("workload.generate",)),
}
#: The one layer metric that is gate work: the Prop 4.1 audit of a view.
_GATE_SPANS = ("views.verify.self_s",)
#: Per-layer metrics read from the program's own counters after the run
#: (simulated values: they repeat exactly).  Zero where a workload does
#: not go through the layer.
_COUNTED = (
    "ledger.chain_bytes",
    "ledger.state_bytes",
    "fabric.identity.users",
    "fabric.order.blocks",
    "fabric.order.tx_per_block",
    "fabric.order.cut_count",
    "fabric.order.cut_bytes",
    "fabric.order.cut_timeout",
    "fabric.order.queue_peak",
    "fabric.order_wait_ms_p50",
    "fabric.order_wait_ms_p99",
    "fabric.commit_wait_ms_p50",
    "fabric.commit_wait_ms_p99",
    "fabric.commit.valid_share",
    "fabric.commit.rebased",
    "fabric.raft.elections",
    "views.merge_tx_per_req",
    "views.write_ms_p50",
    "views.write_ms_p99",
    "views.read_ms_p50",
    "views.read_ms_p99",
    "views.access_ms_p99",
    "serving.batches",
    "serving.req_per_batch",
    "serving.queue_peak",
    "serving.shed",
    "serving.gateway_wait_ms_p50",
    "serving.gateway_wait_ms_p99",
    "serving.generator_lag_ms_max",
    *(
        f"serving.rung.{rate}.{field}"
        for rate in (25, 50, 100, 200, 400, 800)
        for field in ("p50_ms", "p99_ms", "goodput_tps", "failed_share")
    ),
    "storage.wal.records",
    "storage.wal.bytes_per_tx",
    "storage.snapshots",
    "storage.durable_ops",
    "storage.recoveries",
    "faults.retries",
    "faults.redeliveries",
    "faults.dropped",
    "faults.deduped",
    "baseline.chains",
    "baseline.crosschain_tx_per_req",
    "baseline.mainchain_tx_per_req",
    "baseline.aborted",
    "workload.requests",
    # End-to-end numbers that only some workloads have, or that are zero
    # on most: the driver's contract wants its end-to-end list uniform
    # and never zero, so it reads these here.
    "failed_share",
    "sim_max_rate_tps",
    "sim_unavailable_ms",
)
PER_LAYER = (
    "host.cpu_s",
    "host.import_s",
    "host.peak_rss_mb",
    "host.other_self_s",
    "host.budget_coverage",
    "host.trace_overhead_ratio",
    "sim.events_per_req",
    "ledger.serialize.calls_per_tx",
    *_SPAN_SUMS,
    *_COUNTED,
)


def per_layer(untraced: list[dict[str, Any]], traced: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics: counts from any run, host times as medians over
    the traced runs, tracing overhead against the untraced runs."""

    def median(values: Iterable[float]) -> float:
        return statistics.median(list(values))

    def span_sum(
        run: dict[str, Any], field: str, names: tuple[str, ...], gate: bool
    ) -> float:
        return sum(
            row[field]
            for phase, rows in run["layers"].items()
            if gate or phase != "gate"
            for name, row in rows.items()
            if name in names
        )

    sim = traced[0]["sim"]
    out = {name: float(sim.get(name, 0.0)) for name in _COUNTED}
    for name, (field, spans) in _SPAN_SUMS.items():
        out[name] = median(
            span_sum(run, field, spans, name in _GATE_SPANS) for run in traced
        )
    other = median(
        run["layers"].get("run", {}).get("phase.run", {}).get("self_s", 0.0)
        for run in traced
    )
    traced_run_s = median(run["host"]["run_s"] for run in traced)
    onchain = out["fabric.order.blocks"] * out["fabric.order.tx_per_block"]
    out.update(
        {
            "host.cpu_s": median(run["host"]["host.cpu_s"] for run in traced),
            "host.import_s": median(run["host"]["host.import_s"] for run in traced),
            "host.peak_rss_mb": median(run["host"]["host_peak_rss_mb"] for run in traced),
            "host.other_self_s": other,
            "host.budget_coverage": 1.0 - other / traced_run_s,
            "host.trace_overhead_ratio": traced_run_s
            / median(run["host"]["run_s"] for run in untraced),
            "sim.events_per_req": out["sim.events"] / sim["workload.requests"],
            "ledger.serialize.calls_per_tx": (
                out["ledger.serialize.calls"] / onchain if onchain else 0.0
            ),
        }
    )
    return out


# -- the driver's form ---------------------------------------------------------------------------


def driver_main(args: argparse.Namespace) -> int:
    workload = args.workload
    if workload not in WORKLOAD_NAMES:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    scale = DRIVER_SCALE[workload] if args.scale is None else args.scale
    traced = bool(args.trace)
    started = time.perf_counter()
    # A traced call still needs one untraced run, for the overhead ratio.
    runs: dict[bool, list[dict[str, Any]]] = {False: [], True: []}
    runs[False].append(run_worker(workload, args.seed, scale, trace=False))
    while (
        len(runs[traced]) < DRIVER_MIN_RUNS
        or time.perf_counter() - started < args.seconds
    ) and time.perf_counter() - started < DRIVER_CALL_CAP_S / 2:
        runs[traced].append(run_worker(workload, args.seed, scale, trace=traced))
    for number, result in enumerate(runs[traced], 1):
        host = result["host"]
        print(
            f"  run {number}: {result['wall_s']:.2f} s (set-up {host['setup_s']:.2f}, "
            f"run {host['run_s']:.2f}, gate {host['gate_s']:.2f})",
            file=sys.stderr,
        )
    check_repeatable(runs[False] + runs[True])
    if traced:
        values = per_layer(runs[False], runs[True])
        listed = [(name, layer_unit(name)) for name in PER_LAYER]
    else:
        values = {
            name: row["value"] for name, row in end_to_end(workload, runs[False]).items()
        }
        listed = [(metric.name, metric.unit) for metric in CONTRACT_END_TO_END]
    first = runs[False][0]
    print(
        f"{workload}: {len(runs[traced])} runs at scale {scale:g} in "
        f"{time.perf_counter() - started:.1f} s",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": first["attempted"],
                "failed": first["attempted"] - first["succeeded"],
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in listed
                },
            }
        )
    )
    return 0


# -- the report ------------------------------------------------------------------------------------


def _format(value: float) -> str:
    if value == 0 or 0.01 <= abs(value) < 1e7:
        return f"{value:,.4g}" if abs(value) < 1000 else f"{value:,.1f}"
    return f"{value:.3e}"


def report_main(args: argparse.Namespace) -> int:
    names = [args.only] if args.only else list(WORKLOAD_NAMES)
    unknown = [name for name in names if name not in WORKLOAD_NAMES]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; one of {WORKLOAD_NAMES}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    results: dict[str, Any] = {
        "seed": args.seed,
        "scale": args.scale,
        "repeats": args.repeats,
        "workloads": {},
    }
    for workload in names:
        runs = []
        for repeat in range(args.repeats):
            runs.append(run_worker(workload, args.seed, args.scale, trace=False))
            print(f"  {workload} run {repeat + 1}: {runs[-1]['wall_s']:.1f} s")
        traced = []
        if args.trace:
            traced.append(run_worker(workload, args.seed, args.scale, trace=True))
            print(f"  {workload} traced run: {traced[-1]['wall_s']:.1f} s")
        check_repeatable(runs + traced)
        entry: dict[str, Any] = {
            "attempted": runs[0]["attempted"],
            "succeeded": runs[0]["succeeded"],
            "latency_samples": runs[0]["sim"]["latency_samples"],
            "end_to_end": end_to_end(workload, runs),
        }
        if traced:
            entry["per_layer"] = per_layer(runs, traced)
        results["workloads"][workload] = entry
        _print_workload(workload, entry)
    total = time.perf_counter() - started
    results["total_wall_s"] = total
    print(f"total {total:.1f} s")
    out = Path(args.out) if args.out else OUT / f"results-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    if total > TOTAL_CAP_S:
        print(
            f"took {total:.0f} s, over the cap of {TOTAL_CAP_S:.0f} s: lower "
            "--repeats first, then --scale; never drop a workload",
            file=sys.stderr,
        )
        return 5
    return 0


def _print_workload(workload: str, entry: dict[str, Any]) -> None:
    samples = entry["latency_samples"]
    print(
        f"{workload}: attempted {entry['attempted']}, succeeded {entry['succeeded']}, "
        "gate passed"
    )
    for name, row in entry["end_to_end"].items():
        line = f"  {name:<24}{_format(row['value']):>14} {row['unit']:<10}"
        if "min" in row:
            line += f" [{_format(row['min'])} .. {_format(row['max'])}]"
            if not row["resolved"]:
                line += " unresolved"
        elif name in ("sim_p50_ms", "sim_p99_ms"):
            line += f" n={samples}"
            if name == "sim_p99_ms" and not rules.tail_supported(samples):
                line += f" (only {rules.samples_beyond(samples, 0.99)} beyond it)"
        print(line)
    for name, value in entry.get("per_layer", {}).items():
        print(f"    {name:<38}{_format(value):>14}")


# -- compare ---------------------------------------------------------------------------------------


def compare_main(args: argparse.Namespace) -> int:
    before = json.loads(Path(args.before).read_text())
    after = json.loads(Path(args.after).read_text())
    for key in ("seed", "scale"):
        if before[key] != after[key]:
            print(f"the two files differ in {key}: {before[key]} and {after[key]}", file=sys.stderr)
            return 2
    worse = 0
    print(
        f"{'workload':<22}{'metric':<24}{'better':<8}{'bound':>6}"
        f"{'before':>14}{'after':>14}  verdict"
    )
    for workload in WORKLOAD_NAMES:
        if workload not in before["workloads"] or workload not in after["workloads"]:
            continue
        rows_a = before["workloads"][workload]["end_to_end"]
        rows_b = after["workloads"][workload]["end_to_end"]
        for metric in END_TO_END:
            if metric.name not in rows_a or metric.name not in rows_b:
                continue
            a, b = rows_a[metric.name], rows_b[metric.name]
            verdict = rules.verdict(
                a["value"],
                b["value"],
                metric.better,
                metric.bound,
                resolved=a["resolved"] and b["resolved"],
            )
            worse += verdict == "worse"
            print(
                f"{workload:<22}{metric.name:<24}{metric.better:<8}{metric.bound:>6.0%}"
                f"{_format(a['value']):>14}{_format(b['value']):>14}  {verdict}"
            )
    return 1 if worse else 0


# -- entry -------------------------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if not (HERE.parents[1] / "src" / "repro").is_dir():
        print(
            f"no program to measure: {HERE.parents[1] / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("before")
        parser.add_argument("after")
        return compare_main(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--only", metavar="W", help="run one workload")
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="where to write the results JSON")
    parser.add_argument("--workload", help="driver form: the workload to measure")
    parser.add_argument("--seconds", type=float, help="driver form: how long to measure")
    args = parser.parse_args(argv)
    try:
        if args.workload is not None or args.seconds is not None:
            if args.workload is None or args.seconds is None:
                parser.error("--workload and --seconds go together")
            return driver_main(args)
        if args.scale is None:
            args.scale = 1.0
        return report_main(args)
    except RunFailed as failure:
        print(f"no numbers: {failure}", file=sys.stderr)
        return failure.code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
