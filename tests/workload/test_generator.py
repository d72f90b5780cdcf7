"""Tests for the supply-chain workload generator."""

import json

from repro.workload.generator import SupplyChainWorkload
from repro.workload.presets import wl1_topology, wl2_topology
from repro.workload.topology import NodeKind


def _workload(items=5, seed=1, **kwargs):
    return SupplyChainWorkload(wl1_topology(), items=items, seed=seed, **kwargs)


def test_trace_is_deterministic_per_seed():
    a = _workload(seed=42).generate()
    b = _workload(seed=42).generate()
    assert a == b
    c = _workload(seed=43).generate()
    assert a != c


def test_every_item_starts_with_creation_and_reaches_terminal():
    topology = wl1_topology()
    trace = _workload(items=10).generate()
    by_item = {}
    for request in trace:
        by_item.setdefault(request.item, []).append(request)
    assert len(by_item) == 10
    for flows in by_item.values():
        assert flows[0].fn == "create_item"
        assert all(r.fn == "transfer" for r in flows[1:])
        last = flows[-1]
        assert topology.kind_of(last.receiver) is NodeKind.TERMINAL


def test_transfers_follow_edges():
    topology = wl1_topology()
    for request in _workload(items=20).generate():
        if request.fn == "transfer":
            assert request.receiver in topology.successors(request.sender)


def test_access_list_grows_along_the_path():
    trace = _workload(items=3).generate()
    by_item = {}
    for request in trace:
        by_item.setdefault(request.item, []).append(request)
    for flows in by_item.values():
        previous = 0
        for request in flows:
            access = request.access_list
            assert len(access) == previous + 1
            previous = len(access)
            assert request.receiver in access


def test_history_references_all_prior_item_requests():
    trace = _workload(items=3).generate()
    by_index = {r.index: r for r in trace}
    for request in trace:
        if request.fn != "transfer":
            assert request.history == ()
            continue
        prior = [by_index[h] for h in request.history]
        assert all(p.item == request.item for p in prior)
        assert all(p.index < request.index for p in prior)
        # All hops up to this one are covered.
        assert len(prior) == len(request.access_list) - 1


def test_secrets_are_json_with_confidential_fields():
    for request in _workload(items=2).generate():
        details = json.loads(request.secret)
        assert {"type", "amount", "price_cents"} <= set(details)


def test_secret_padding():
    workload = _workload(items=1, secret_size=2000)
    for request in workload.generate():
        assert len(request.secret) >= 2000


def test_item_prefix_namespaces_items():
    a = {r.item for r in _workload(item_prefix="a-").generate()}
    b = {r.item for r in _workload(item_prefix="b-").generate()}
    assert a.isdisjoint(b)


def test_interleaved_trace_separates_item_hops():
    workload = _workload(items=4)
    trace = workload.generate_interleaved()
    # Same request multiset as the plain trace.
    plain = workload.generate()
    assert sorted((r.item, r.fn, r.receiver) for r in trace) == sorted(
        (r.item, r.fn, r.receiver) for r in plain
    )
    # Within any window of `items` consecutive requests, no item repeats.
    for start in range(len(trace) - 3):
        window = [r.item for r in trace[start : start + 4]]
        assert len(set(window)) == len(window)


def test_interleaved_reindexes_history():
    trace = _workload(items=4).generate_interleaved()
    by_index = {r.index: r for r in trace}
    assert [r.index for r in trace] == list(range(len(trace)))
    for request in trace:
        for h in request.history:
            assert by_index[h].item == request.item
            assert h < request.index


def test_creations_can_be_skipped():
    trace = _workload(include_creations=False).generate()
    assert all(r.fn == "transfer" for r in trace)


def _mean_views(trace):
    """Mean size of the access list — the paper's ``|V|``."""
    return sum(len(r.access_list) for r in trace) / len(trace)


def test_average_views_per_request_reasonable():
    trace = _workload(items=30).generate()
    # Paths in WL1 are 2-3 hops; with creations the mean access-list
    # size sits between 1.5 and 3.5.
    assert 1.5 <= _mean_views(trace) <= 3.5


def test_wl2_paths_are_longer_on_average():
    wl1 = SupplyChainWorkload(wl1_topology(), items=40, seed=5).generate()
    wl2 = SupplyChainWorkload(wl2_topology(), items=40, seed=5).generate()
    assert _mean_views(wl2) > _mean_views(wl1)
