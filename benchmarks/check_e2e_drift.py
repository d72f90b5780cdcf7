"""Drift guards: simulated numbers that must not move by accident.

Three sources, each a pure function of the code and pinned exactly in a
committed file, so equality is the bound:

``e2e`` (the default, ~2 min)
    every workload of ``benchmarks/e2e`` as ``run.py`` runs it (its
    default scale, seed 1): ``attempted``, ``failed`` and the five exact
    simulated metrics, against ``benchmarks/e2e_expected_seed1.json``.
``figures`` (~3 s, needs ``repro`` importable: ``PYTHONPATH=src``)
    the rows every ``repro.bench.runners.figure*`` returns at the
    ``--smoke`` scale, against ``benchmarks/figures_expected_smoke.json``.
``pins`` (~1 s, ``PYTHONPATH=src``)
    the ten trajectory pins (the ``SCENARIOS`` of both ``test_trajectory_pin.py``
    under ``tests/``), against ``benchmarks/pins_expected.json``.

Usage: ``python3 benchmarks/check_e2e_drift.py [e2e|figures|pins] [--regen]``.
Each difference prints as one ``path: expected X, got Y`` line, e.g.
``fig4[12].tps: expected 2.6, got 2.7``.  A change that means to move a
number re-records the source's file with ``--regen``, which prints the
same lines against the old file before rewriting it; that diff is then
the change's claim.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

BENCHMARKS = Path(__file__).resolve().parent
EXPECTED = BENCHMARKS / "e2e_expected_seed1.json"
FIGURES_EXPECTED = BENCHMARKS / "figures_expected_smoke.json"
PINS_EXPECTED = BENCHMARKS / "pins_expected.json"
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


def e2e_rows() -> dict[str, dict[str, float]]:
    contract = json.loads((BENCHMARKS.parent / "BENCHMARK.json").read_text())
    return {w["name"]: measure(w["name"]) for w in contract["workloads"]}


def figure_rows() -> dict[str, list]:
    """Every figure's rows at the smoke scale, run in this process.

    The figures' tables go to a discarded buffer; the rows come back in
    their JSON form, as the pinned file holds them.
    """
    from repro.bench.__main__ import FIGURES, SMOKE_SCALE

    with mock.patch.dict(os.environ, {"REPRO_BENCH_SCALE": SMOKE_SCALE}):
        with contextlib.redirect_stdout(io.StringIO()):
            rows = {name: figure() for name, figure in FIGURES.items()}
    return json.loads(json.dumps(rows))


def pin_rows() -> dict[str, dict]:
    """Every trajectory pin's observables, run in this process."""
    sys.path.insert(0, str(BENCHMARKS.parent))  # for the ``tests`` package
    from tests.faults.test_trajectory_pin import SCENARIOS as chaos
    from tests.serving.test_trajectory_pin import SCENARIOS as serving

    cut = {p: {n: run(p) for n, run in serving.items()} for p in ("timer", "group")}
    rows = {"chaos": {name: run() for name, run in chaos.items()}, "serving": cut}
    return json.loads(json.dumps(rows))


SOURCES = {
    "e2e": (EXPECTED, e2e_rows),
    "figures": (FIGURES_EXPECTED, figure_rows),
    "pins": (PINS_EXPECTED, pin_rows),
}


class _Missing:
    def __repr__(self) -> str:
        return "<missing>"


MISSING = _Missing()


def field_diff(expected, got, path: str = "") -> list[str]:
    """One ``path: expected X, got Y`` line per leaf where ``got`` differs.

    Leaves compare by type as well as value (a table prints ``3`` and
    ``3.0`` differently), and a dict whose keys come in another order is
    reported too (a table's columns follow them).
    """
    if isinstance(expected, dict) and isinstance(got, dict):
        keys = list(expected) + [key for key in got if key not in expected]
        lines = [
            line
            for key in keys
            for line in field_diff(
                expected.get(key, MISSING),
                got.get(key, MISSING),
                f"{path}.{key}" if path else str(key),
            )
        ]
        if not lines and list(expected) != list(got):
            lines.append(f"{path}: expected keys {list(expected)}, got {list(got)}")
        return lines
    if isinstance(expected, list) and isinstance(got, list):
        return [
            line
            for i in range(max(len(expected), len(got)))
            for line in field_diff(
                expected[i] if i < len(expected) else MISSING,
                got[i] if i < len(got) else MISSING,
                f"{path}[{i}]",
            )
        ]
    if type(expected) is type(got) and expected == got:
        return []
    return [f"{path}: expected {expected!r}, got {got!r}"]


def pin_diff(observed: dict, *keys: str) -> list[str]:
    """:func:`field_diff` of one pin against its entry ``keys`` of the pins file."""
    expected = json.loads(PINS_EXPECTED.read_text())
    for key in keys:
        expected = expected[key]
    return field_diff(expected, json.loads(json.dumps(observed)), ".".join(keys))


def dumps(tree, indent: str = "") -> str:
    """JSON as ``indent=2`` writes it, but a list of scalars on one line."""
    inner = indent + "  "
    if isinstance(tree, dict) and tree:
        items = (f"{inner}{json.dumps(k)}: {dumps(v, inner)}" for k, v in tree.items())
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(tree, list) and any(isinstance(v, (dict, list)) for v in tree):
        items = (inner + dumps(v, inner) for v in tree)
        return "[\n" + ",\n".join(items) + f"\n{indent}]"
    return json.dumps(tree)


def leaf_count(tree) -> int:
    if isinstance(tree, dict):
        return sum(leaf_count(value) for value in tree.values())
    if isinstance(tree, list):
        return sum(leaf_count(value) for value in tree)
    return 1


def main(argv: list[str]) -> int:
    names = [arg for arg in argv if arg != "--regen"] or ["e2e"]
    if len(names) != 1 or names[0] not in SOURCES:
        print(f"usage: check_e2e_drift.py [{'|'.join(SOURCES)}] [--regen]", file=sys.stderr)
        return 2
    path, rows = SOURCES[names[0]]
    measured = rows()
    lines = field_diff(json.loads(path.read_text()), measured)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {leaf_count(measured)} values drifted")
    if "--regen" in argv:
        path.write_text(dumps(measured) + "\n")
        return 0
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
