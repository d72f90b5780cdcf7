"""Tests for unmaintained (query-on-invocation) views."""

import pytest

from repro.fabric.network import Gateway
from repro.fabric.peer import ValidationCode
from repro.views.datalog import DatalogViewQuery
from repro.views.hash_based import HashBasedManager
from repro.views.predicates import AttributeEquals
from repro.views.types import ViewMode
from repro.views.unmaintained import UnmaintainedView


@pytest.fixture
def populated(network):
    owner = network.register_user("owner")
    manager = HashBasedManager(Gateway(network, owner))
    manager.create_view("w1", AttributeEquals("to", "W1"), ViewMode.REVOCABLE)
    outcomes = []
    for i, to in enumerate(["W1", "W2", "W1", "W3"]):
        outcomes.append(
            manager.invoke_with_secret(
                "create_item",
                {"item": f"i{i}", "owner": to},
                {"item": f"i{i}", "from": None, "to": to, "access": [to]},
                b"s",
            )
        )
    return network, manager, outcomes


def test_predicate_view_evaluates_on_demand(populated):
    network, manager, outcomes = populated
    view = UnmaintainedView("to-w1", AttributeEquals("to", "W1"))
    result = view.evaluate(network)
    assert set(result.tids) == {outcomes[0].tid, outcomes[2].tid}
    assert result.transactions_scanned == 4
    assert len(result) == 2
    assert outcomes[0].tid in result
    assert outcomes[1].tid not in result


def test_time_horizon_excludes_later_transactions(populated):
    network, manager, outcomes = populated
    horizon = network.env.now
    late = manager.invoke_with_secret(
        "create_item",
        {"item": "late", "owner": "W1"},
        {"item": "late", "from": None, "to": "W1", "access": ["W1"]},
        b"s",
    )
    view = UnmaintainedView("to-w1", AttributeEquals("to", "W1"))
    bounded = view.evaluate(network, upto_time=horizon)
    assert late.tid not in bounded
    unbounded = view.evaluate(network)
    assert late.tid in unbounded


def test_diff_against_maintained_view(populated):
    network, manager, outcomes = populated
    view = UnmaintainedView("to-w1", AttributeEquals("to", "W1"))
    maintained = set(manager.buffer.get("w1").data)
    missing, extra = view.diff_against_maintained(network, maintained)
    assert missing == set() and extra == set()
    # Drop one from the maintained view: it shows up as missing.
    dropped = outcomes[0].tid
    missing, extra = view.diff_against_maintained(network, maintained - {dropped})
    assert missing == {dropped} and extra == set()
    # Smuggle an extra in: it shows up as extra.
    missing, extra = view.diff_against_maintained(
        network, maintained | {outcomes[1].tid}
    )
    assert missing == set() and extra == {outcomes[1].tid}


def test_datalog_definition(populated):
    network, manager, outcomes = populated
    query = DatalogViewQuery(
        'v(T) :- delivery(T, F, "W1").',
        query="v",
        extract_facts=lambda tx: [
            (
                "delivery",
                (
                    tx.tid,
                    tx.nonsecret["public"].get("from"),
                    tx.nonsecret["public"].get("to"),
                ),
            )
        ],
    )
    view = UnmaintainedView("w1-datalog", query)
    result = view.evaluate(network)
    assert set(result.tids) == {outcomes[0].tid, outcomes[2].tid}


def _delivery_to_w1() -> DatalogViewQuery:
    return DatalogViewQuery(
        'v(T) :- delivery(T, F, "W1").',
        query="v",
        extract_facts=lambda tx: [
            ("delivery", (tx.tid, None, tx.nonsecret["public"].get("to")))
        ],
    )


@pytest.mark.parametrize(
    "definition",
    [AttributeEquals("to", "W1"), _delivery_to_w1()],
    ids=["predicate", "datalog"],
)
def test_rejected_transactions_are_in_no_view(populated, definition):
    """A chain carrying an MVCC-conflicted invoke: the unmaintained view
    neither scans nor returns it, and agrees with the maintained one."""
    network, manager, outcomes = populated
    env = network.env
    racing = [
        manager.invoke_with_secret_async(
            "create_item",
            {"item": "dup", "owner": "W1"},
            {"item": "dup", "from": None, "to": "W1", "access": ["W1"]},
            b"s",
        )
        for _ in range(2)
    ]
    raced = env.run(until=env.all_of(racing))
    rejected = [o.tid for o in raced if o.notice.code is not ValidationCode.VALID]
    committed = [o.tid for o in raced if o.notice.code is ValidationCode.VALID]
    assert len(rejected) == len(committed) == 1
    network.reference_peer.chain.locate(rejected[0])  # on chain, as INVALID
    view = UnmaintainedView("to-w1", definition)
    result = view.evaluate(network)
    assert set(result.tids) == {outcomes[0].tid, outcomes[2].tid, committed[0]}
    assert result.transactions_scanned == 5
    maintained = set(manager.buffer.get("w1").data)
    assert view.diff_against_maintained(network, maintained) == (set(), set())
