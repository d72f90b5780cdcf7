"""The isolation oracle catches a wrong MVCC fold.

:meth:`repro.faults.InvariantMonitor.assert_isolation` re-derives the
chain-order fold of a run independently of the peers' validation code.
Each test here runs a small same-key contention workload (commutative
counter bumps landing in one block) once as the program is, where
``check()`` must pass, and once with one function of the commit path
mutated, where ``check()`` — and the oracle on its own — must raise.

A mutant is the real function's source with one snippet replaced,
compiled against the function's own module globals; the snippet must
occur exactly once, so a refactor that moves it fails here loudly
instead of leaving a mutant that mutates nothing.
"""

from __future__ import annotations

import inspect
import textwrap

import pytest

from repro import build_network
from repro.errors import InvariantViolationError
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.network import Gateway
from repro.fabric.peer import Peer
from repro.faults import InvariantMonitor, recover_peer
from repro.workload.zipf import CounterContract

#: Two waves of these bumps: same-key bumps in one block conflict.
BUMPS = [("a", 1), ("a", 2), ("a", 3), ("b", 5), ("a", 4), ("b", 7)]


def _mutant(function, old: str, new: str):
    """``function`` with the one occurrence of ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{old!r} not found once in {function.__name__}"
    namespace = dict(function.__globals__)
    code = compile(
        "from __future__ import annotations\n" + source.replace(old, new),
        inspect.getsourcefile(function),
        "exec",
    )
    exec(code, namespace)
    return namespace[function.__name__]


def _contended_run(commit_backend: str, storage_backend: str | None = None):
    """A four-peer network after two waves of conflicting bumps, its
    monitor, and the reference peer's commit results."""
    network = build_network(
        NetworkConfig(
            latency=SINGLE_REGION,
            real_signatures=False,
            batch_timeout_ms=50.0,
            peer_count=4,
            commit_backend=commit_backend,
            storage_backend=storage_backend,
        )
    )
    network.install_chaincode(CounterContract())
    monitor = InvariantMonitor(network)
    results = []
    network.on_block(lambda _block, result: results.append(result))
    gateway = Gateway(network, network.register_user("client"))
    for _wave in range(2):
        events = [
            gateway.submit_async("counter", "bump", {"key": key, "amount": amount})
            for key, amount in BUMPS
        ]
        network.env.run(until=network.env.all_of(events))
    return network, monitor, results


def _assert_caught(monitor) -> None:
    with pytest.raises(InvariantViolationError):
        monitor.check()
    with pytest.raises(InvariantViolationError, match="isolation"):
        monitor.assert_isolation()


@pytest.mark.parametrize("commit_backend", ["reference", "occ"])
def test_unmutated_contended_run_passes(commit_backend):
    _network, monitor, results = _contended_run(commit_backend)
    monitor.check()
    # The workload really contends: reference aborts, occ rebases.
    aborted = sum(result.invalid_count for result in results)
    rebased = sum(result.rebased_count for result in results)
    if commit_backend == "occ":
        assert (aborted, rebased > 0) == (0, True)
    else:
        assert (aborted > 0, rebased) == (True, 0)


@pytest.mark.parametrize("commit_backend", ["reference", "occ"])
def test_dropped_mvcc_compare_is_caught(monkeypatch, commit_backend):
    monkeypatch.setattr(
        Peer,
        "_validate_memoised",
        _mutant(
            Peer._validate_memoised,
            "self.statedb.version_of(key) == version",
            "True",
        ),
    )
    _network, monitor, _results = _contended_run(commit_backend)
    _assert_caught(monitor)


def test_rebase_committing_endorsement_time_writes_is_caught(monkeypatch):
    monkeypatch.setattr(
        Peer,
        "_try_rebase",
        _mutant(
            Peer._try_rebase,
            "return dict(ctx.write_set)",
            "return dict(original_writes)",
        ),
    )
    _network, monitor, _results = _contended_run("occ")
    _assert_caught(monitor)


def test_wal_replay_dropping_rebased_is_caught(monkeypatch):
    network, monitor, _results = _contended_run("occ", storage_backend="memory")
    monitor.check()
    monkeypatch.setattr(
        Peer,
        "apply_recovered_block",
        _mutant(
            Peer.apply_recovered_block,
            "rebased = rebased or {}",
            "rebased = {}",
        ),
    )
    recover_peer(network, network.peers[1])
    _assert_caught(monitor)


def test_valid_transaction_marked_conflicting_is_caught(monkeypatch):
    monkeypatch.setattr(
        Peer,
        "_validate_memoised",
        _mutant(
            Peer._validate_memoised,
            "clean = all(",
            "clean = position > 0 and all(",
        ),
    )
    _network, monitor, _results = _contended_run("reference")
    _assert_caught(monitor)
