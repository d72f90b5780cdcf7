"""Paired A/B runs of one end-to-end workload: a base revision vs this checkout.

Usage, from the root of a checkout::

    python3 benchmarks/ab.py --base REV --workload W [--seed S] [--pairs N]
                             [--seconds T] [--out PREFIX]

The base revision is checked out in a temporary ``git worktree`` (removed
afterwards); this checkout, uncommitted changes included, is the head.
Each pair runs ``benchmarks/e2e/run.py --workload W --seed S --seconds T``
once on each side, alternating which side goes first, so a machine that
changes speed during the session moves both sides of a pair alike.

Every run must report the same simulated numbers, ``attempted`` and
``failed`` as every other (a host-only change may move host time and
nothing else); otherwise the program exits 1.  For each host metric it
reports the median and inter-quartile range of each side, how many pairs
the head won, the median of the per-pair head/base ratios and whether
the head's gain meets the claim rule (``CLAIM_WIN_SHARE``), and it
writes them to ``PREFIX.json`` and a markdown table to ``PREFIX.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from check_e2e_drift import EXACT

ROOT = Path(__file__).resolve().parents[1]

#: Host metrics compared, each with the direction that is better.
HOST_METRICS = {"host_req_per_s": "higher", "setup_s": "lower", "host_peak_rss_mb": "lower"}

#: The claim rule: the head wins at least this share of the pairs (ties
#: count for neither side), and the medians differ in the better
#: direction by more than the base's inter-quartile range.
CLAIM_WIN_SHARE = 0.9


# -- statistics ----------------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), interpolated between the sorted values."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare_pairs(base: list[float], head: list[float], better: str) -> dict:
    """Summarise paired runs of one metric (``base[i]`` and ``head[i]`` ran
    back to back), and whether they meet the claim rule."""
    if len(base) != len(head) or len(base) < 2:
        raise ValueError("need two or more pairs, as many base runs as head runs")
    sign = 1 if better == "higher" else -1
    b1, b_med, b3 = quartiles(base)
    h1, h_med, h3 = quartiles(head)
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    beyond_iqr = sign * (h_med - b_med) > b3 - b1
    return {
        "better": better,
        "base_median": b_med,
        "base_iqr": [b1, b3],
        "head_median": h_med,
        "head_iqr": [h1, h3],
        "head_wins": wins,
        "pairs": len(base),
        "median_ratio": statistics.median(h / b for b, h in zip(base, head)),
        "gain_beyond_base_iqr": beyond_iqr,
        "claim_met": wins >= CLAIM_WIN_SHARE * len(base) and beyond_iqr,
    }


def simulated(report: dict) -> dict:
    """What a host-only change must leave equal: the exact simulated
    metrics, ``attempted`` and ``failed``."""
    row = {"attempted": report["attempted"], "failed": report["failed"]}
    row.update({name: report["metrics"][name]["value"] for name in EXACT})
    return row


def markdown(workload: str, seed: int, base_rev: str, rows: dict) -> str:
    lines = [
        f"### `{workload}`, seed {seed}: base `{base_rev}` vs head",
        "",
        "| metric | base median [IQR] | head median [IQR] | head wins "
        "| median head/base | gain claimed |",
        "|---|---|---|---|---|---|",
    ]
    for name, row in rows.items():
        b1, b3 = row["base_iqr"]
        h1, h3 = row["head_iqr"]
        lines.append(
            f"| `{name}` ({row['better']} is better) "
            f"| {row['base_median']:.4g} [{b1:.4g}, {b3:.4g}] "
            f"| {row['head_median']:.4g} [{h1:.4g}, {h3:.4g}] "
            f"| {row['head_wins']}/{row['pairs']} | {row['median_ratio']:.3f} "
            f"| {'yes' if row['claim_met'] else 'no'} |"
        )
    return "\n".join(lines) + "\n"


# -- the runs ------------------------------------------------------------------------------------


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload]
        + ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the base revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--out", help="path prefix of the .json and .md (default: ab-W-sS)")
    args = parser.parse_args(argv)
    out = args.out or f"ab-{args.workload}-s{args.seed}"
    base_rev = subprocess.run(
        ["git", "rev-parse", "--short", args.base],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.strip()

    runs: dict[str, list[dict]] = {"base": [], "head": []}
    with tempfile.TemporaryDirectory() as scratch:
        worktree = Path(scratch) / "base"
        subprocess.run(
            ["git", "worktree", "add", "--detach", "--quiet", str(worktree), base_rev],
            cwd=ROOT, check=True,
        )
        try:
            roots = {"base": worktree, "head": ROOT}
            for pair in range(args.pairs):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    runs[side].append(run_once(roots[side], args.workload, args.seed, args.seconds))
                print(
                    f"pair {pair + 1}/{args.pairs}: "
                    + ", ".join(
                        f"{side} {runs[side][-1]['metrics']['host_req_per_s']['value']:,.0f} req/s"
                        for side in order
                    ),
                    file=sys.stderr,
                )
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(worktree)], cwd=ROOT)

    reference = simulated(runs["base"][0])
    drifted = [
        (side, number, simulated(report))
        for side, reports in runs.items()
        for number, report in enumerate(reports, 1)
        if simulated(report) != reference
    ]
    for side, number, row in drifted:
        print(f"{side} run {number}: {row} != {reference}", file=sys.stderr)

    rows = {
        name: compare_pairs(
            [report["metrics"][name]["value"] for report in runs["base"]],
            [report["metrics"][name]["value"] for report in runs["head"]],
            better,
        )
        for name, better in HOST_METRICS.items()
    }
    table = markdown(args.workload, args.seed, base_rev, rows)
    Path(f"{out}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "base": base_rev,
                "seconds": args.seconds,
                "simulated": reference,
                "simulated_equal": not drifted,
                "metrics": rows,
                "runs": runs,
            },
            indent=1,
        )
        + "\n"
    )
    Path(f"{out}.md").write_text(table)
    print(table)
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
