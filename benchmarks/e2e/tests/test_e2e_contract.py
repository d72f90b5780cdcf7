"""BENCHMARK.json and run.py say the same thing."""

import json
import re

import run
from conftest import ROOT

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def test_workloads_are_the_ones_run_py_runs():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOAD_NAMES)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_end_to_end_metrics_are_the_uniform_ones():
    listed = CONTRACT["end_to_end"]
    assert [m["name"] for m in listed] == [m.name for m in run.CONTRACT_END_TO_END]
    by_name = {m.name: m for m in run.END_TO_END}
    for entry in listed:
        assert set(entry) == {"name", "unit", "better", "bound"}
        metric = by_name[entry["name"]]
        assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)
        assert UNIT.match(entry["unit"])
        assert 0 < entry["bound"] <= 0.25
    setup = next(m for m in listed if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in listed)


def test_per_layer_metrics_are_the_ones_the_traced_pass_reports():
    listed = CONTRACT["per_layer"]
    assert [m["name"] for m in listed] == list(run.PER_LAYER)
    for entry in listed:
        assert set(entry) == {"name", "unit", "better"}
        assert entry["unit"] == run.layer_unit(entry["name"])
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")


def test_the_eleven_end_to_end_metrics_of_the_report():
    assert len(run.END_TO_END) == 11
    # Those the contract's list leaves out reach the driver per layer.
    left_out = {m.name for m in run.END_TO_END} - {
        m.name for m in run.CONTRACT_END_TO_END
    }
    assert left_out == {"failed_share", "sim_max_rate_tps", "sim_unavailable_ms"}
    assert left_out <= set(run.PER_LAYER)
