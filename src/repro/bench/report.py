"""Plain-text reporting of benchmark series, one table per figure.

The printer renders the same rows/series the paper plots, so a run of
``pytest benchmarks/ --benchmark-only`` reproduces every figure as a
table on stdout (and EXPERIMENTS.md records paper-vs-measured).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

#: Canonical latency columns, in table order, and the harness
#: ``RunResult`` field each one reads.  Every runner that reports latency
#: goes through :func:`latency_cells` so tables across figures stay
#: uniform (same names, same order, same rounding).
LATENCY_FIELDS: tuple[tuple[str, str], ...] = (
    ("latency_ms", "latency_mean_ms"),
    ("p50_ms", "latency_p50_ms"),
    ("p95_ms", "latency_p95_ms"),
)


def latency_cells(result: Any, percentiles: Sequence[str]) -> dict[str, int]:
    """The ``percentiles`` columns of a ``RunResult``, in whole ms."""
    return {
        column: round(getattr(result, field))
        for column, field in LATENCY_FIELDS
        if column in percentiles
    }


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
