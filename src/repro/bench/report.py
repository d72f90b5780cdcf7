"""Plain-text reporting of benchmark series, one table per figure.

The printer renders the same rows/series the paper plots, so a run of
``pytest benchmarks/ --benchmark-only`` reproduces every figure as a
table on stdout (and EXPERIMENTS.md records paper-vs-measured).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

#: Canonical latency columns, in table order, with the source-field
#: aliases each one accepts.  Every runner that reports latency goes
#: through :func:`latency_cells` so tables across figures stay uniform
#: (same names, same order, same rounding) instead of each runner
#: hand-rolling its own ``latency_ms``/``p95_ms`` pairs.
LATENCY_FIELDS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("latency_ms", ("latency_ms", "latency_mean_ms", "mean_ms")),
    ("p50_ms", ("p50_ms", "latency_p50_ms")),
    ("p95_ms", ("p95_ms", "latency_p95_ms")),
    ("p99_ms", ("p99_ms", "latency_p99_ms")),
    ("max_ms", ("max_ms", "latency_max_ms")),
)

#: Canonical column order for open-loop serving tables (the knee curve):
#: load first, then goodput, then the latency ladder, then shedding.
SERVING_COLUMNS: tuple[str, ...] = (
    "offered_tps",
    "goodput_tps",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "max_ms",
    "shed_pct",
    "committed",
    "aborted",
    "shed",
    "queue_peak",
)


def _lookup(source: Any, name: str) -> Any:
    if isinstance(source, Mapping):
        return source.get(name)
    return getattr(source, name, None)


def latency_cells(
    source: Any,
    digits: int = 0,
    percentiles: Sequence[str] | None = None,
) -> dict[str, Any]:
    """Canonical latency columns from anything latency-shaped.

    ``source`` may be a mapping or an object (a harness ``RunResult``, a
    serving ``LatencySummary``, a plain dict); each canonical column is
    filled from the first alias the source actually has, so runners
    share one naming/rounding convention.  ``percentiles`` restricts the
    columns emitted (default: everything present).
    """
    cells: dict[str, Any] = {}
    for column, aliases in LATENCY_FIELDS:
        if percentiles is not None and column not in percentiles:
            continue
        for alias in aliases:
            value = _lookup(source, alias)
            if value is not None:
                cells[column] = (
                    round(float(value), digits) if digits else round(float(value))
                )
                break
    return cells


def format_table(rows: Sequence[Mapping[str, Any]], columns: Sequence[str] | None = None) -> str:
    """Render dict rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {
        col: max(len(str(col)), *(len(str(row.get(col, ""))) for row in rows))
        for col in columns
    }
    header = "  ".join(str(col).ljust(widths[col]) for col in columns)
    divider = "  ".join("-" * widths[col] for col in columns)
    lines = [header, divider]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(col, "")).ljust(widths[col]) for col in columns)
        )
    return "\n".join(lines)


def print_series(
    title: str,
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    note: str = "",
) -> None:
    """Print one figure's series with a header banner."""
    banner = "=" * max(len(title), 20)
    print(f"\n{banner}\n{title}\n{banner}")
    if note:
        print(note)
    print(format_table(rows, columns))
