"""Tests for the ``python -m repro.bench`` command-line entry point."""

import os

from repro import build_network
from repro.bench import __main__ as cli
from repro.crypto import rsa
from repro.fabric.config import NetworkConfig


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "fig4" in out and "all" in out


def test_no_args_prints_usage(capsys):
    assert cli.main([]) == 0
    assert "figures:" in capsys.readouterr().out


def test_unknown_figure_exits_two(capsys):
    assert cli.main(["fig99"]) == 2
    err = capsys.readouterr().err
    assert "fig99" in err


def test_selected_figures_run(monkeypatch):
    calls = []
    monkeypatch.setitem(cli.FIGURES, "fig4", lambda: calls.append("fig4"))
    monkeypatch.setitem(cli.FIGURES, "fig5", lambda: calls.append("fig5"))
    assert cli.main(["fig4", "fig5"]) == 0
    assert calls == ["fig4", "fig5"]


def test_all_runs_everything(monkeypatch):
    """``all`` is exactly the paper's figures, Figs 4-13."""
    calls = []
    for name in list(cli.FIGURES):
        monkeypatch.setitem(
            cli.FIGURES, name, lambda name=name: calls.append(name)
        )
    assert cli.main(["all"]) == 0
    assert calls == [f"fig{n}" for n in range(4, 14)]


def test_retired_runners_are_unknown_figures(capsys):
    """The chaos and knee sweeps live in the e2e workloads and
    ``benchmarks/test_serving_microbench.py``, not in this CLI."""
    for name in ("faults", "serving"):
        assert cli.main([name]) == 2
        assert name in capsys.readouterr().err
    assert cli.main(["--smoke", "serving"]) == 2


def test_smoke_defaults_and_environment(monkeypatch):
    """--smoke runs the default figure under scale 0.05 + a keypair pool."""
    seen = {}

    def fake_figure():
        seen["scale"] = os.environ.get("REPRO_BENCH_SCALE")
        seen["pool"] = rsa.active_keypair_pool()

    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    for name in cli.SMOKE_DEFAULT_FIGURES:
        monkeypatch.setitem(cli.FIGURES, name, fake_figure)
    assert cli.main(["--smoke"]) == 0
    assert seen["scale"] == cli.SMOKE_SCALE
    assert seen["pool"] is not None
    # Both the env override and the pool are scoped to the run.
    assert "REPRO_BENCH_SCALE" not in os.environ
    assert rsa.active_keypair_pool() is None


def test_smoke_respects_existing_scale(monkeypatch):
    seen = {}
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
    monkeypatch.setitem(
        cli.FIGURES, "fig4", lambda: seen.update(scale=os.environ["REPRO_BENCH_SCALE"])
    )
    assert cli.main(["--smoke", "fig4"]) == 0
    assert seen["scale"] == "0.5"
    assert os.environ["REPRO_BENCH_SCALE"] == "0.5"


def test_smoke_end_to_end_runs_real_figure():
    """The smoke pass actually executes a figure at tiny scale."""
    assert cli.main(["--smoke"]) == 0


def test_removed_pipeline_flags_exit_two(capsys):
    """The pool/backend flags are gone: they fail like any unknown
    argument instead of being silently ignored (also next to 'all')."""
    assert cli.main(["--pipeline", "reference", "fig4"]) == 2
    assert cli.main(["--workers", "8", "all"]) == 2
    assert "--workers" in capsys.readouterr().err
    assert cli.main(["--crypto", "reference", "fig4"]) == 2
    assert cli.main(["--ledger", "reference", "fig4"]) == 2
    assert "--ledger" in capsys.readouterr().err


def test_commit_flag_reaches_the_networks_the_figures_build(monkeypatch, capsys):
    """``--commit occ`` is what a figure's networks resolve, and only
    for the duration of the run."""
    seen = {}

    def fake_figure():
        network = build_network(NetworkConfig(real_signatures=False))
        seen["commit"] = network.commit_backend.name

    monkeypatch.delenv("REPRO_COMMIT_BACKEND", raising=False)
    monkeypatch.setitem(cli.FIGURES, "fig4", fake_figure)
    assert cli.main(["--commit", "occ", "fig4"]) == 0
    assert seen["commit"] == "occ"
    assert "REPRO_COMMIT_BACKEND" not in os.environ
    assert cli.main(["fig4"]) == 0
    assert seen["commit"] == "reference"
    assert cli.main(["--commit", "speculative", "fig4"]) == 2
    assert "speculative" in capsys.readouterr().err
    assert cli.main(["fig4", "--commit"]) == 2
