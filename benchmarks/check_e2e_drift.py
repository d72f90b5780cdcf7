"""Drift guard: the six e2e workloads' simulated numbers at seed 1.

``python3 benchmarks/check_e2e_drift.py`` re-runs every workload of
``benchmarks/e2e`` in the driver's form (driver scale, seed 1) and fails
when ``attempted``, ``failed`` or any of the five exact simulated
metrics differs *at all* from ``benchmarks/e2e_expected_seed1.json`` —
they are a pure function of (commit, workload, seed, scale), so
equality is the bound.  A change that means to move one re-records the
file with ``--regen``; that file's diff is then the change's claim.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent
EXPECTED = BENCHMARKS / "e2e_expected_seed1.json"
EXACT = (
    "sim_goodput_tps",
    "sim_p50_ms",
    "sim_p99_ms",
    "onchain_tx_per_req",
    "storage_bytes_per_req",
)


def measure(workload: str) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(BENCHMARKS / "e2e" / "run.py"), "--workload", workload]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=BENCHMARKS.parent,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    row = {"attempted": report["attempted"], "failed": report["failed"]}
    row.update({name: report["metrics"][name]["value"] for name in EXACT})
    return row


def main(argv: list[str]) -> int:
    contract = json.loads((BENCHMARKS.parent / "BENCHMARK.json").read_text())
    measured = {w["name"]: measure(w["name"]) for w in contract["workloads"]}
    if argv == ["--regen"]:
        EXPECTED.write_text(json.dumps(measured, indent=2) + "\n")
        return 0
    expected = json.loads(EXPECTED.read_text())
    drifted = 0
    for workload, row in measured.items():
        for name, value in row.items():
            if expected[workload][name] != value:
                drifted += 1
                print(f"{workload}.{name}: expected {expected[workload][name]!r}, got {value!r}")
    print(f"{drifted} of {sum(map(len, measured.values()))} numbers drifted")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
