"""The metric rules on synthetic inputs."""

import math

import pytest

import metrics as rules


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert rules.percentile(values, 0.50) == 50
    assert rules.percentile(values, 0.99) == 99
    assert rules.percentile(values, 1.0) == 100
    assert rules.percentile([7.0], 0.99) == 7.0
    assert rules.percentile(reversed(values), 0.01) == 1
    with pytest.raises(ValueError):
        rules.percentile([], 0.5)
    with pytest.raises(ValueError):
        rules.percentile(values, 0.0)


def test_a_tail_needs_ten_samples_beyond_it():
    assert rules.samples_beyond(1000, 0.99) == 10
    assert rules.tail_supported(1000)
    assert not rules.tail_supported(999)
    assert rules.tail_supported(200, 0.95)
    assert rules.samples_beyond(0, 0.99) == 0


def test_steady_window_drops_warm_up_and_drain():
    due = [float(i) * 10 for i in range(100)]  # 0 .. 990 ms
    assert rules.steady_window(due) == (100.0, 990.0)
    # 90 requests are due inside the window; all succeed.
    assert rules.window_goodput_tps(due, [True] * 100) == pytest.approx(
        90 / 0.890
    )
    # Failures inside the window lower goodput; failures in the warm-up don't.
    ok = [True] * 100
    ok[5] = False
    assert rules.window_goodput_tps(due, ok) == pytest.approx(90 / 0.890)
    ok[50] = False
    assert rules.window_goodput_tps(due, ok) == pytest.approx(89 / 0.890)


def test_goodput_counts_by_due_time_not_completion():
    # Completion times never enter: a request due in the window counts
    # even if it finished in the drain tail.
    due = [0.0, 100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0]
    assert rules.window_goodput_tps(due, [True] * 10) == pytest.approx(9 / 0.8)


def _rung(rate, failed_share=0.0, p99=100.0, growth=1.0):
    return (float(rate), rules.rung_sustained(failed_share, p99, growth))


def test_max_rate_is_the_highest_rung_with_all_lower_rungs_sustained():
    assert rules.max_sustained_rate([_rung(25), _rung(50), _rung(100)]) == 100
    # A failing rung caps the ladder even if a higher one passes.
    ladder = [_rung(25), _rung(50, p99=400.0), _rung(100)]
    assert rules.max_sustained_rate(ladder) == 25
    assert rules.max_sustained_rate([_rung(25, failed_share=0.01)]) == 0
    # Order of the input does not matter.
    assert rules.max_sustained_rate([_rung(100), _rung(25), _rung(50)]) == 100


def test_a_growing_backlog_fails_a_rung_that_shed_nothing():
    latencies = [50.0] * 100 + [80.0] * 100 + [120.0] * 100
    growth = rules.backlog_growth(latencies)
    assert growth == pytest.approx(2.4)
    assert not rules.rung_sustained(0.0, 150.0, growth)
    assert rules.rung_sustained(0.0, 150.0, rules.backlog_growth([50.0] * 300))
    assert rules.backlog_growth([1.0, 2.0]) == 1.0  # too few to tell


def test_longest_gap_is_taken_over_gaps_that_overlap_the_window():
    completions = [0, 10, 20, 500, 510, 2000, 2010]
    assert rules.longest_gap_ms(completions, 0, 600) == 1490  # begins inside
    assert rules.longest_gap_ms(completions, 0, 400) == 480
    assert rules.longest_gap_ms(completions, 505, 509) == 10
    assert rules.longest_gap_ms([5], 0, 10) == 0.0
    assert rules.longest_gap_ms([30, 10, 20], 0, 100) == 10  # unsorted input


def test_quartile_spread_matches_the_contract_arithmetic():
    values = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    assert rules.quartile_spread(values) == pytest.approx(0.0225)
    assert rules.quartile_spread([5.0]) == 0.0
    assert rules.range_spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)


@pytest.mark.parametrize(
    "before, after, better, bound, expected",
    [
        (100.0, 100.0, "lower", 0.0, "same"),
        (100.0, 100.5, "lower", 0.01, "same"),
        (100.0, 102.0, "lower", 0.01, "worse"),
        (100.0, 90.0, "lower", 0.01, "better"),
        (100.0, 90.0, "higher", 0.10, "same"),
        (100.0, 80.0, "higher", 0.10, "worse"),
        (100.0, 120.0, "higher", 0.10, "better"),
        (50.0, 25.0, "higher", 0.0, "worse"),
        (1.0, 1.0000001, "lower", 0.0, "worse"),
    ],
)
def test_verdict(before, after, better, bound, expected):
    assert rules.verdict(before, after, better, bound) == expected


def test_an_unresolved_metric_is_never_called_better_or_worse():
    assert rules.verdict(100.0, 150.0, "lower", 0.1, resolved=False) == "unresolved"
    assert rules.verdict(100.0, 100.0, "lower", 0.1, resolved=False) == "same"
    with pytest.raises(ValueError):
        rules.verdict(1.0, 2.0, "sideways", 0.1)
    assert math.isinf(rules.quartile_spread([0.0, 0.0, 1.0, -1.0]))
