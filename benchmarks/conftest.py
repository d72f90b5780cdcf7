"""Benchmark-suite configuration.

Each ``test_fig*`` benchmark regenerates one figure of the paper's
evaluation section on the simulated network, prints the series, and
asserts the qualitative shape the paper reports.  All measurements use
*simulated* time; pytest-benchmark's wall-clock numbers only show how
long the simulation itself took to run.

The ``test_*_microbench`` files persist their numbers through the
``record`` fixture: one session, one ``BENCH_micro.json`` at the repo
root.

Set ``REPRO_BENCH_SCALE=0.25`` (or smaller) for a quick smoke pass; a
scaled run asserts the shapes it can and records nothing.
"""

import itertools
import json
import os
import random
import secrets
from pathlib import Path

import pytest

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_micro.json"


class BenchRecorder:
    """Rows recorded during one session, merged into one JSON file."""

    def __init__(self, path: Path):
        self.path = path
        self.entries: dict[str, dict] = {}

    def record(self, name: str, description: str, rows: dict) -> None:
        """Keep ``rows`` (key → numbers) under the layer ``name``."""
        entry = self.entries.setdefault(name, {"description": description, "rows": {}})
        entry["rows"].update(rows)

    def write(self) -> None:
        """Write the file, sorted, keeping what this session did not run;
        nothing is written by a scaled run or one that recorded nothing."""
        if not self.entries or "REPRO_BENCH_SCALE" in os.environ:
            return
        merged = json.loads(self.path.read_text()) if self.path.exists() else {}
        for name, entry in self.entries.items():
            kept = merged.get(name, {}).get("rows", {})
            merged[name] = {**entry, "rows": {**kept, **entry["rows"]}}
        self.path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def bench_recorder():
    recorder = BenchRecorder(BENCH_JSON)
    yield recorder
    recorder.write()


@pytest.fixture
def record(bench_recorder):
    """``record(name, description, rows)``: persist a microbench's rows."""
    return bench_recorder.record


@pytest.fixture
def rearm(monkeypatch):
    """``rearm()``: identical randomness and tid sequence for every leg
    of a differential bench (the commit-backend differential suite's
    pattern).  A file whose recorded rows depend on another seed and
    first tid passes them."""
    # Imported here: this file is also the conftest of ``e2e/tests``,
    # which run without ``src`` on the path.
    from repro.ledger import transaction
    from repro.sharding import crossshard

    def arm(seed=0x1EDE9, first_tid=7_000_000):
        rng = random.Random(seed)
        monkeypatch.setattr(secrets, "token_bytes", lambda n=32: rng.randbytes(n))
        monkeypatch.setattr(secrets, "randbits", rng.getrandbits)
        monkeypatch.setattr(secrets, "randbelow", lambda n: rng.randrange(n))
        monkeypatch.setattr(transaction, "_tid_counter", itertools.count(first_tid))
        # The ring places a 2PC transaction's coordinator by its xid.
        monkeypatch.setattr(crossshard, "_xid_counter", itertools.count(1))

    return arm


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark fixture."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
