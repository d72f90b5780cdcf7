"""Fault-plan parsing, validation, and serialisation round trips."""

import random

import pytest

from repro.errors import FaultInjectionError
from repro.faults import (
    CrashPointSpec,
    FaultEvent,
    FaultPlan,
    MessageFaultModel,
    MessageFaultRule,
    RetryPolicy,
)


def _full_plan() -> FaultPlan:
    return FaultPlan(
        seed=42,
        retry=RetryPolicy(max_attempts=5, timeout_ms=3_000.0),
        messages=(
            MessageFaultRule(channel="client_to_orderer", drop=0.1),
            MessageFaultRule(
                channel="orderer_to_peer",
                delay=0.5,
                delay_range_ms=(10.0, 50.0),
                from_ms=100.0,
                until_ms=900.0,
            ),
            MessageFaultRule(
                channel="client_to_orderer",
                kind="txlist-flush",
                drop=1.0,
                max_drops=1,
            ),
        ),
        events=(
            FaultEvent(kind="crash_peer", at_ms=200.0, for_ms=500.0, target=1),
            FaultEvent(kind="crash_leader", at_ms=300.0),
            FaultEvent(kind="owner_outage", at_ms=400.0, for_ms=1_000.0),
            FaultEvent(kind="crash_chain", at_ms=500.0, for_ms=300.0),
            FaultEvent(kind="partition_chain", at_ms=600.0),
            FaultEvent(
                kind="partition",
                at_ms=100.0,
                for_ms=500.0,
                groups=(("orderer:1",), ("peer:2", "peer:3")),
                symmetric=False,
            ),
            FaultEvent(
                kind="link_loss", at_ms=150.0, src="orderer", dst="peer:1", drop=0.5
            ),
        ),
        crash_points=(
            CrashPointSpec(
                target=1, at_op=7, partial_fraction=0.5, recover_after_ms=250.0
            ),
            CrashPointSpec(target=2, at_op=3),
        ),
        redeliver_after_ms=100.0,
    )


def test_json_round_trip():
    plan = _full_plan()
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_from_source_accepts_inline_json_and_file(tmp_path):
    plan = _full_plan()
    assert FaultPlan.from_source(plan.to_json()) == plan
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json())
    assert FaultPlan.from_source(str(path)) == plan


def test_unknown_plan_keys_rejected():
    with pytest.raises(FaultInjectionError, match="unknown fault-plan keys"):
        FaultPlan.from_json('{"seed": 1, "chaos_level": 11}')
    for key in ("partitions", "degradations"):
        with pytest.raises(FaultInjectionError, match=key):
            FaultPlan.from_dict({"seed": 1, key: []})


def test_plan_without_retry():
    plan = FaultPlan.from_json('{"retry": null}')
    assert plan.retry is None
    assert FaultPlan.from_json(plan.to_json()).retry is None


def test_invalid_json_rejected():
    with pytest.raises(FaultInjectionError, match="not valid JSON"):
        FaultPlan.from_json("{nope")
    with pytest.raises(FaultInjectionError, match="must be an object"):
        FaultPlan.from_json("[1, 2]")


def test_event_validation():
    with pytest.raises(FaultInjectionError, match="unknown fault event kind"):
        FaultEvent(kind="meteor_strike", at_ms=0.0)
    with pytest.raises(FaultInjectionError, match="needs a target"):
        FaultEvent(kind="crash_peer", at_ms=0.0)
    with pytest.raises(FaultInjectionError, match="needs for_ms"):
        FaultEvent(kind="owner_outage", at_ms=0.0)
    with pytest.raises(FaultInjectionError, match="at_ms"):
        FaultEvent(kind="crash_leader", at_ms=-1.0)
    with pytest.raises(FaultInjectionError, match="for_ms"):
        FaultEvent(kind="crash_leader", at_ms=0.0, for_ms=0.0)
    for groups in ((), (("peer:1",), ())):
        with pytest.raises(FaultInjectionError, match="groups must be non-empty"):
            FaultEvent(kind="partition", at_ms=0.0, groups=groups)
    with pytest.raises(FaultInjectionError, match="more than one partition group"):
        FaultEvent(
            kind="partition", at_ms=0.0, groups=(("peer:1", "peer:2"), ("peer:2",))
        )
    with pytest.raises(FaultInjectionError, match="needs a node name"):
        FaultEvent(kind="slow_node", at_ms=0.0, factor=2.0)
    for kind in ("slow_link", "link_loss"):
        with pytest.raises(FaultInjectionError, match="needs src and dst"):
            FaultEvent(kind=kind, at_ms=0.0, src="client", drop=0.5)
        with pytest.raises(FaultInjectionError, match="needs src and dst"):
            FaultEvent(kind=kind, at_ms=0.0, dst="orderer", drop=0.5)
    # A slowdown of 1 (the default) or less does nothing.
    for factor in (0.5, 1.0):
        with pytest.raises(FaultInjectionError, match="factor must be > 1"):
            FaultEvent(kind="slow_node", at_ms=0.0, node="peer:1", factor=factor)
        with pytest.raises(FaultInjectionError, match="factor must be > 1"):
            FaultEvent(kind="slow_link", at_ms=0.0, src="a", dst="b", factor=factor)
    for drop in (0.0, 1.5):
        with pytest.raises(FaultInjectionError, match=r"drop probability .* \(0, 1\]"):
            FaultEvent(kind="link_loss", at_ms=0.0, src="a", dst="b", drop=drop)
    # A shaping field the kind does not read is a mistyped plan.
    for kind, extra, foreign in [
        ("crash_peer", {"target": 1}, {"drop": 0.9, "groups": (("x",),)}),
        ("crash_leader", {}, {"node": "peer:1"}),
        ("owner_outage", {"for_ms": 5.0}, {"symmetric": False}),
        ("partition", {"groups": (("peer:1",),)}, {"factor": 2.0}),
        ("slow_node", {"node": "peer:1", "factor": 2.0}, {"src": "a"}),
        ("slow_link", {"src": "a", "dst": "b", "factor": 2.0}, {"drop": 0.5}),
        ("link_loss", {"src": "a", "dst": "b", "drop": 0.5}, {"factor": 2.0}),
        ("link_loss", {"src": "a", "dst": "b", "drop": 0.5}, {"node": "b"}),
    ]:
        FaultEvent(kind, at_ms=0.0, **extra)
        with pytest.raises(FaultInjectionError, match=f"{kind} event does not read"):
            FaultEvent(kind, at_ms=0.0, **extra, **foreign)


def test_crash_point_validation():
    with pytest.raises(FaultInjectionError, match="at_op"):
        CrashPointSpec(target=1, at_op=0)
    with pytest.raises(FaultInjectionError, match="partial_fraction"):
        CrashPointSpec(target=1, at_op=1, partial_fraction=1.5)
    with pytest.raises(FaultInjectionError, match="recover_after_ms"):
        CrashPointSpec(target=1, at_op=1, recover_after_ms=0.0)


def test_rule_validation():
    with pytest.raises(FaultInjectionError, match="unknown fault channel"):
        MessageFaultRule(channel="carrier_pigeon")
    with pytest.raises(FaultInjectionError, match="probability"):
        MessageFaultRule(channel="client_to_orderer", drop=1.5)
    with pytest.raises(FaultInjectionError, match="duplication"):
        MessageFaultRule(channel="orderer_to_peer", duplicate=0.5)
    with pytest.raises(FaultInjectionError, match="delay_range_ms"):
        MessageFaultRule(
            channel="client_to_orderer", delay=1.0, delay_range_ms=(5.0, 1.0)
        )


def test_retry_policy_backoff_caps_and_jitters():
    policy = RetryPolicy(
        backoff_ms=100.0,
        backoff_factor=2.0,
        max_backoff_ms=350.0,
        jitter_ms=0.0,
    )
    rng = random.Random(1)
    assert policy.backoff_for(1, rng) == 100.0
    assert policy.backoff_for(2, rng) == 200.0
    assert policy.backoff_for(3, rng) == 350.0  # capped
    assert policy.backoff_for(9, rng) == 350.0
    jittered = RetryPolicy(backoff_ms=100.0, jitter_ms=50.0)
    value = jittered.backoff_for(1, random.Random(2))
    assert 100.0 <= value <= 150.0
    with pytest.raises(FaultInjectionError, match="max_attempts"):
        RetryPolicy(max_attempts=0)


def test_retry_policy_rejects_negative_or_nan_timing():
    """A negative backoff used to load, then kill the run at its first retry."""
    retry = {"timeout_ms": 50, "max_backoff_ms": -3, "jitter_ms": 0}
    with pytest.raises(FaultInjectionError, match="max_backoff_ms"):
        FaultPlan.from_dict({"seed": 1, "retry": retry})
    timing = ("timeout_ms", "backoff_ms", "backoff_factor")
    for field in timing + ("max_backoff_ms", "jitter_ms"):
        for bad in (-1.0, float("nan")):
            with pytest.raises(FaultInjectionError, match=field):
                RetryPolicy(**{field: bad})
    assert RetryPolicy(backoff_factor=0.0).backoff_factor == 0.0


def test_message_model_is_deterministic_and_ordered():
    rules = (
        MessageFaultRule(
            channel="client_to_orderer", kind="txlist-flush", drop=1.0, max_drops=1
        ),
        MessageFaultRule(channel="client_to_orderer", drop=0.3),
    )

    def run():
        model = MessageFaultModel(rules, seed=9)
        fates = []
        for step in range(40):
            kind = "txlist-flush" if step % 10 == 0 else "invoke"
            decision = model.decide("client_to_orderer", float(step), kind=kind)
            fates.append((decision.drop, decision.duplicate, decision.delay_ms))
        return fates, dict(model.dropped)

    first, second = run(), run()
    assert first == second


def test_max_drops_caps_losses():
    model = MessageFaultModel(
        [MessageFaultRule(channel="client_to_orderer", drop=1.0, max_drops=2)],
        seed=3,
    )
    fates = [model.decide("client_to_orderer", float(i)).drop for i in range(10)]
    assert fates.count(True) == 2
    assert fates[:2] == [True, True]
    assert sum(model.dropped.values()) == 2


def test_first_matching_rule_wins():
    model = MessageFaultModel(
        [
            MessageFaultRule(
                channel="client_to_orderer", kind="txlist-flush", drop=1.0
            ),
            MessageFaultRule(channel="client_to_orderer", drop=0.0),
        ],
        seed=1,
    )
    assert model.decide("client_to_orderer", 0.0, kind="txlist-flush").drop
    assert not model.decide("client_to_orderer", 0.0, kind="invoke").drop


def test_time_window_bounds_rule():
    model = MessageFaultModel(
        [
            MessageFaultRule(
                channel="client_to_orderer", drop=1.0, from_ms=100.0, until_ms=200.0
            )
        ],
        seed=1,
    )
    assert not model.decide("client_to_orderer", 50.0).drop
    assert model.decide("client_to_orderer", 150.0).drop
    assert not model.decide("client_to_orderer", 200.0).drop
