"""The paper figures' rows, pinned and recomputed.

Every row ``runners.figure4`` … ``figure13`` returns at the ``--smoke``
scale must equal ``benchmarks/figures_expected_smoke.json`` exactly; a
change that means to move a figure re-records the file with
``python3 benchmarks/check_e2e_drift.py figures --regen``.
"""

import json

from repro.bench import runners


def test_figure_rows_equal_the_golden(drift):
    expected = json.loads(drift.FIGURES_EXPECTED.read_text())
    lines = drift.field_diff(expected, drift.figure_rows())
    assert not lines, "\n".join(lines)


def test_field_diff_names_each_differing_leaf(drift):
    diff = drift.field_diff
    expected = {"fig4": [{"tps": 2.6, "clients": 1}, {"tps": 3.0}]}
    assert diff(expected, json.loads(json.dumps(expected))) == []
    assert diff(expected, {"fig4": [{"tps": 2.7, "clients": 1}]}) == [
        "fig4[0].tps: expected 2.6, got 2.7",
        "fig4[1]: expected {'tps': 3.0}, got <missing>",
    ]
    assert diff({"a": [3]}, {"a": [3.0]}) == ["a[0]: expected 3, got 3.0"]
    assert diff({"a": 1, "b": 2}, {"b": 2, "a": 1}) == [
        ": expected keys ['a', 'b'], got ['b', 'a']"
    ]


def test_regen_prints_the_diff_then_rewrites(drift, monkeypatch, tmp_path, capsys):
    golden = tmp_path / "golden.json"
    golden.write_text('{"fig4": [2.6, 3]}\n')
    monkeypatch.setitem(drift.SOURCES, "figures", (golden, lambda: {"fig4": [2.7, 3]}))
    assert drift.main(["figures", "--regen"]) == 0
    out = capsys.readouterr().out
    assert out == "fig4[0]: expected 2.6, got 2.7\n1 of 2 values drifted\n"
    assert golden.read_text() == '{\n  "fig4": [2.7, 3]\n}\n'
    assert drift.main(["figures"]) == 0
    assert capsys.readouterr().out == "0 of 2 values drifted\n"


def test_fig4_5_sweep_reruns_for_another_scale_or_selector(monkeypatch):
    """The shared sweep is cached per scale and ``REPRO_*`` setting, not
    once per process."""
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
    monkeypatch.delenv("REPRO_COMMIT_BACKEND", raising=False)
    first = runners._fig4_5_sweep()
    assert runners._fig4_5_sweep() is first
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
    baseline = [r.clients for r in runners._fig4_5_sweep() if r.label == "baseline-2PC"]
    assert baseline == [1, 2, 2, 3, 5, 6]
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
    monkeypatch.setenv("REPRO_COMMIT_BACKEND", "occ")
    assert runners._fig4_5_sweep() is not first
