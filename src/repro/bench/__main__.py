"""Command-line entry point for regenerating the paper's figures.

Usage::

    python -m repro.bench fig4            # one figure
    python -m repro.bench fig10 fig11     # several
    python -m repro.bench all             # everything (Figs 4-13)
    python -m repro.bench --smoke         # fast CI pass (tiny scale)
    python -m repro.bench --smoke fig10   # fast pass of one figure
    python -m repro.bench --commit occ fig4      # rebase MVCC conflicts
    REPRO_BENCH_SCALE=0.25 python -m repro.bench all   # quick pass

``--smoke`` shrinks the sweeps via ``REPRO_BENCH_SCALE`` (unless the
variable is already set), so a full figure runs in seconds.  Smoke
numbers are for wiring checks only — simulated-time *shapes* survive
scaling, absolute values do not.

``--commit {occ,reference}`` selects the commit-time conflict policy
(see :mod:`repro.fabric.occ`) by exporting ``REPRO_COMMIT_BACKEND`` for
the run; it changes simulated results under contention: occ rebases
MVCC-conflicted transactions instead of aborting them.

A bad ``REPRO_BENCH_SCALE`` (not a positive, finite number) or selector
value prints its :class:`repro.errors.ConfigError` and exits 2, like a
bad ``--commit``.
"""

from __future__ import annotations

import os
import sys

from repro.bench import harness, runners
from repro.bench.report import print_series
from repro.errors import ConfigError
from repro.fabric.occ import COMMIT_BACKENDS

#: Scale applied by --smoke when REPRO_BENCH_SCALE is not already set.
SMOKE_SCALE = "0.05"
#: Figures run by --smoke when none are named (one end-to-end sweep).
SMOKE_DEFAULT_FIGURES = ["fig4"]

FIGURES = {
    "fig4": runners.figure4,
    "fig5": runners.figure5,
    "fig6": runners.figure6,
    "fig7": runners.figure7,
    "fig8": runners.figure8,
    "fig9": runners.figure9,
    "fig10": runners.figure10,
    "fig11": runners.figure11,
    "fig12": runners.figure12,
    "fig13": runners.figure13,
}


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if any(a in ("-h", "--help") for a in args):
        print(__doc__)
        print("figures:", ", ".join(FIGURES), "| 'all' runs everything")
        return 0
    smoke = "--smoke" in args
    args = [a for a in args if a != "--smoke"]
    try:
        commit_name, args = _pop_option(args, "--commit")
        if commit_name is not None and commit_name not in COMMIT_BACKENDS:
            raise ValueError(
                f"--commit expects one of {sorted(COMMIT_BACKENDS)}, "
                f"not {commit_name!r}"
            )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not args and not smoke:
        print(__doc__)
        print("figures:", ", ".join(FIGURES), "| 'all' runs everything")
        return 0
    if not args:
        args = list(SMOKE_DEFAULT_FIGURES)
    selected = list(FIGURES) if "all" in args else args
    unknown = [a for a in args if a != "all" and a not in FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}", file=sys.stderr)
        print("expected:", ", ".join(FIGURES), file=sys.stderr)
        return 2
    # Both knobs reach the figures the way a user's shell would set
    # them, and are put back afterwards.
    overrides = {}
    if smoke and "REPRO_BENCH_SCALE" not in os.environ:
        overrides["REPRO_BENCH_SCALE"] = SMOKE_SCALE
    if commit_name is not None:
        overrides["REPRO_COMMIT_BACKEND"] = commit_name
    previous = {name: os.environ.get(name) for name in overrides}
    os.environ.update(overrides)
    try:
        runners._scale()  # a bad scale fails before any figure prints
        for name in selected:
            FIGURES[name]()
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        for name, value in previous.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value
    _print_phase_breakdown()
    return 0


def _pop_option(args: list[str], flag: str):
    """Extract ``flag VALUE`` from ``args``; returns (value, rest).

    Raises ``ValueError`` (with a printable message) when the flag is
    present without a value.
    """
    if flag not in args:
        return None, args
    index = args.index(flag)
    if index + 1 >= len(args):
        raise ValueError(f"{flag} requires a value")
    return args[index + 1], args[:index] + args[index + 2 :]


def _print_phase_breakdown() -> None:
    """Closing table: wall-clock seconds per pipeline phase, all runs.

    This is host CPU spent inside endorse/order/commit/state-root/query
    code across every network the selected figures built — the
    breakdown a perf change is judged against.
    """
    if not harness.PHASE_TOTALS:
        return
    total = sum(harness.PHASE_TOTALS.values())
    rows = [
        {
            "phase": phase,
            "wall_s": round(seconds, 3),
            "share": f"{100.0 * seconds / total:.1f}%",
        }
        for phase, seconds in sorted(
            harness.PHASE_TOTALS.items(), key=lambda kv: -kv[1]
        )
    ]
    print_series(
        "Pipeline phase wall-clock (all runs)",
        rows,
        note="host seconds inside each Fabric pipeline phase",
    )


if __name__ == "__main__":
    raise SystemExit(main())
