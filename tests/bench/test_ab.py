"""The statistics of the paired A/B runner ``benchmarks/ab.py``, on fixed
inputs (the ``ab`` fixture loads it by path)."""

import pytest


def test_quartiles_interpolate_between_sorted_values(ab):
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([10.0, 20.0]) == (12.5, 15.0, 17.5)


def test_a_clear_throughput_gain(ab):
    base = [100.0, 110.0, 90.0, 105.0, 95.0]
    head = [150.0, 160.0, 140.0, 90.0, 150.0]
    row = ab.compare_pairs(base, head, "higher")
    assert row["base_median"] == 100.0 and row["base_iqr"] == [95.0, 105.0]
    assert row["head_median"] == 150.0 and row["head_iqr"] == [140.0, 150.0]
    assert (row["head_wins"], row["pairs"]) == (4, 5)  # pair 4 went to the base
    assert row["median_ratio"] == pytest.approx(1.5)  # ratios 1.5 1.4545 1.5556 0.857 1.5789
    assert row["gain_beyond_base_iqr"]
    assert not row["claim_met"]  # 4/5 wins is under nine tenths


def test_lower_is_better_counts_the_other_way(ab):
    row = ab.compare_pairs([2.0, 2.0, 2.0], [1.0, 3.0, 1.0], "lower")
    assert row["head_wins"] == 2
    assert row["median_ratio"] == 0.5
    assert row["gain_beyond_base_iqr"]  # the medians differ by 1, the base IQR is 0
    assert not row["claim_met"]


def test_nine_wins_in_ten_beyond_the_iqr_meet_the_claim(ab):
    base = [100.0 + i for i in range(10)]
    head = [130.0 + i for i in range(9)] + [90.0]
    row = ab.compare_pairs(base, head, "higher")
    assert row["head_wins"] == 9 and row["gain_beyond_base_iqr"]
    assert row["claim_met"]
    assert not ab.compare_pairs(base, head[:8] + [90.0, 90.0], "higher")["claim_met"]


def test_a_gain_inside_the_base_spread_is_not_beyond_its_iqr(ab):
    base = [80.0, 120.0, 90.0, 110.0]  # IQR [87.5, 112.5]: 25 wide
    head = [100.0, 115.0, 100.0, 120.0]  # median 107.5, 7.5 above the base's 100
    row = ab.compare_pairs(base, head, "higher")
    assert row["head_wins"] == 3
    assert not row["gain_beyond_base_iqr"] and not row["claim_met"]


def test_ties_are_not_wins_and_unpaired_runs_are_refused(ab):
    assert ab.compare_pairs([1.0, 1.0], [1.0, 1.0], "higher")["head_wins"] == 0
    with pytest.raises(ValueError):
        ab.compare_pairs([1.0, 2.0], [1.0], "higher")
    with pytest.raises(ValueError):
        ab.compare_pairs([1.0], [1.0], "higher")


def test_simulated_row_and_markdown_table(ab):
    report = {
        "attempted": 10,
        "failed": 0,
        "metrics": {name: {"value": 1.5, "unit": "x"} for name in ab.EXACT + ("host_req_per_s",)},
    }
    row = ab.simulated(report)
    assert set(row) == {"attempted", "failed", *ab.EXACT}
    assert "host_req_per_s" not in row
    rows = {"host_req_per_s": ab.compare_pairs([1.0, 2.0], [2.0, 3.0], "higher")}
    table = ab.markdown("closed_wl1_ei", 1, "abc1234", rows)
    assert table.splitlines()[0] == "### `closed_wl1_ei`, seed 1: base `abc1234` vs head"
    assert (
        "| `host_req_per_s` (higher is better) | 1.5 [1.25, 1.75] | 2.5 [2.25, 2.75] "
        "| 2/2 | 1.750 | yes |"
    ) in table
