"""Whole runs at a fiftieth of the size: repeatable, seeded, gated."""

import json
import shutil
import subprocess
import sys

import pytest

import run
from conftest import E2E, ROOT

SCALE = 0.02


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_one_seed_repeats_exactly_and_another_differs(workload):
    first = run.run_worker(workload, 11, SCALE, trace=False)
    again = run.run_worker(workload, 11, SCALE, trace=False)
    other = run.run_worker(workload, 12, SCALE, trace=False)
    # Byte-identical simulated metrics and counts for one seed.
    assert json.dumps(first["sim"], sort_keys=True) == json.dumps(
        again["sim"], sort_keys=True
    )
    assert first["attempted"] == again["attempted"] >= 1
    run.check_repeatable([first, again])
    # Another seed is another schedule (and other keys, salts and tip
    # hashes), and it still passes the gate: a run that did not would
    # have made run_worker raise.
    assert other["sim"] != first["sim"]
    assert other["attempted"] == first["attempted"]
    with pytest.raises(run.RunFailed):
        run.check_repeatable([first, other])


def test_tracing_changes_no_simulated_number_and_reports_every_layer_metric():
    plain = run.run_worker("open_viewmix_er", 11, SCALE, trace=False)
    traced = run.run_worker("open_viewmix_er", 11, SCALE, trace=True)
    run.check_repeatable([plain, traced])
    layers = run.per_layer([plain], [traced])
    assert set(layers) == set(run.PER_LAYER)
    assert layers["views.query.calls"] > 0 and layers["crypto.aes.calls"] > 0
    assert layers["storage.wal.records"] == 0 and layers["fabric.raft.elections"] == 0
    assert 0.0 < layers["host.budget_coverage"] <= 1.0
    for name in ("layers", "spans"):
        assert (E2E / "out" / f"open_viewmix_er.{name}.json").is_file()


def test_a_leaked_setting_is_refused(monkeypatch):
    monkeypatch.setenv("REPRO_CRYPTO_BACKEND", "reference")
    # run.py scrubs it for its workers ...
    assert "REPRO_CRYPTO_BACKEND" not in run.clean_environment()
    # ... and the worker refuses to measure if one gets through.
    done = subprocess.run(
        [sys.executable, str(E2E / "worker.py"), "--workload", "closed_wl1_hr",
         "--seed", "1", "--scale", "0.02"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 2 and not done.stdout.strip()


def _driver(cwd, *extra):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "open_counter_chaos",
         "--seed", "5", "--seconds", "1", "--scale", str(SCALE), *extra],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.mark.parametrize("trace, listed", [("0", "end_to_end"), ("1", "per_layer")])
def test_the_driver_form_prints_what_the_contract_lists(trace, listed):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _driver(ROOT, "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in contract[listed]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if listed == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_program_the_benchmark_fails_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        E2E,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = _driver(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert not done.stdout.strip()
