"""Self-test of the recorder behind the ``record`` fixture (``conftest.py``)."""

import json

import pytest


@pytest.fixture
def session(bench_recorder, tmp_path, monkeypatch):
    """``session()``: a fresh recorder on one scratch file, as each pytest
    session holds one on ``BENCH_micro.json``."""
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    return lambda: type(bench_recorder)(tmp_path / "BENCH_micro.json")


def _run_everything(session):
    full = session()
    full.record("ledger", "ledger floors", {"scan": {"speedup": 9.0}})
    full.record("crypto", "crypto floors", {"envelope": {"speedup": 20.0}})
    full.record("crypto", "crypto floors", {"aes_block": {"speedup": 4.0}})
    full.write()
    return full.path


def test_two_records_make_one_sorted_file(session):
    text = _run_everything(session).read_text()
    written = json.loads(text)
    assert text == json.dumps(written, indent=2, sort_keys=True) + "\n"
    assert list(written) == ["crypto", "ledger"]
    assert list(written["crypto"]["rows"]) == ["aes_block", "envelope"]
    assert written["crypto"]["description"] == "crypto floors"


def test_a_later_session_keeps_what_it_did_not_run(session):
    path = _run_everything(session)
    later = session()
    later.record("crypto", "crypto floors", {"envelope": {"speedup": 25.0}})
    later.write()
    written = json.loads(path.read_text())
    assert written["ledger"]["rows"] == {"scan": {"speedup": 9.0}}
    assert written["crypto"]["rows"] == {
        "aes_block": {"speedup": 4.0},
        "envelope": {"speedup": 25.0},
    }


def test_a_scaled_or_empty_run_writes_nothing(session, monkeypatch):
    empty = session()
    empty.write()
    assert not empty.path.exists()
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
    scaled = session()
    scaled.record("crypto", "crypto floors", {"envelope": {"speedup": 1.0}})
    scaled.write()
    assert not scaled.path.exists()
