"""Tests for the benchmark harness (small configurations)."""

import pytest

from repro.bench.harness import (
    METHODS,
    RunResult,
    _batches,
    run_baseline_workload,
    run_view_scaling,
    run_view_workload,
)
from repro.bench.report import format_table, print_series
from repro.errors import LedgerViewError
from repro.fabric.config import SINGLE_REGION, benchmark_config
from repro.workload.generator import SupplyChainWorkload
from repro.workload.presets import wl1_topology

FAST = benchmark_config(latency=SINGLE_REGION, batch_timeout_ms=50.0)


def test_methods_table_complete():
    assert set(METHODS) == {"ER", "EI", "HR", "HI"}


def test_unknown_method_rejected():
    with pytest.raises(LedgerViewError):
        run_view_workload("XX", wl1_topology(), clients=1)


def test_batches_never_repeat_items():
    trace = SupplyChainWorkload(wl1_topology(), items=6, seed=2).generate_interleaved()
    for batch in _batches(trace, 4):
        items = [r.item for r in batch]
        assert len(items) <= 4
        assert len(set(items)) == len(items)
    flattened = [r.index for batch in _batches(trace, 4) for r in batch]
    assert flattened == [r.index for r in trace]


def test_run_view_workload_accounting():
    result = run_view_workload(
        "HR", wl1_topology(), clients=2, items_per_client=3, config=FAST
    )
    assert isinstance(result, RunResult)
    assert result.committed == result.attempted
    assert result.onchain_txs == result.committed  # revocable: 1 tx/request
    assert result.tps > 0
    assert result.latency_mean_ms > 0
    assert not result.timed_out


def test_irrevocable_onchain_ratio():
    result = run_view_workload(
        "HI", wl1_topology(), clients=2, items_per_client=3, config=FAST
    )
    assert result.onchain_txs == 2 * result.committed


def test_txlist_brings_ratio_back_to_one():
    result = run_view_workload(
        "HI", wl1_topology(), clients=2, items_per_client=3, config=FAST,
        use_txlist=True,
    )
    # invokes + a few flush transactions
    assert result.committed <= result.onchain_txs <= result.committed * 1.2


def test_max_requests_truncation():
    result = run_view_workload(
        "HR", wl1_topology(), clients=2, items_per_client=5, config=FAST,
        max_requests_per_client=4,
    )
    assert result.attempted == 8


def test_horizon_marks_timeout():
    """Both fleets stop at the horizon: the view methods and the 2PC
    baseline (whose horizon otherwise fires only in full-scale Fig 8)."""
    for result in (
        run_view_workload("HR", wl1_topology(), clients=2, items_per_client=4,
                          config=FAST, horizon_ms=1.0),
        run_baseline_workload(wl1_topology(), clients=2, items_per_client=4,
                              config=FAST, horizon_ms=1.0),
    ):
        assert result.timed_out, result.label
        assert result.committed < result.attempted


def test_baseline_run_accounting():
    result = run_baseline_workload(
        wl1_topology(), clients=1, items_per_client=2, config=FAST
    )
    assert result.committed == result.attempted
    assert result.extra["crosschain_txs"] >= 2 * result.committed
    assert result.label == "baseline-2PC"


def test_view_scaling_all_vs_single_payload():
    all_views = run_view_scaling(
        5, "all", clients=2, requests_per_client=4, config=FAST
    )
    single = run_view_scaling(
        5, "single", clients=2, requests_per_client=4, config=FAST
    )
    assert all_views.committed == single.committed == 8
    # "all" transactions carry 5 view entries each -> bigger ledger.
    assert all_views.storage_bytes > single.storage_bytes


def test_view_scaling_validates_inclusion():
    with pytest.raises(LedgerViewError):
        run_view_scaling(2, "some", clients=1, requests_per_client=1, config=FAST)


def test_report_formatting(capsys):
    rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
    table = format_table(rows)
    assert "a" in table and "22" in table
    assert format_table([]) == "(no rows)"
    print_series("Fig X", rows, note="shape only")
    out = capsys.readouterr().out
    assert "Fig X" in out and "shape only" in out
