"""Regression: the backlog signal must not double-count admitted work.

``AsyncGateway.backlog()`` used to sum the gateway queue, the inflight
count, AND the target's live ``queue_depth()`` — but a
dispatched-but-unresolved request is *also* sitting in the target's
pipeline, so the sum counted every admitted request twice between
dispatch and commit.  The distortion is worst during a catch-up burst:
block deliveries stall (here: an ``orderer_to_peer`` drop window), the
orderer keeps accepting, and both ``inflight`` and ``queue_depth()``
grow in lockstep over the SAME requests.  The apparent backlog crossed
``shed_high`` and the gateway shed traffic the system was about to
absorb the moment redelivery caught the peers up.

The scenario below reproduces that burst against a real network and
asserts the probe request issued mid-stall is admitted and commits with
zero sheds — while also proving the old formula *would* have shed it
(inflight + depth + queue ≥ shed_high at probe time).
"""

from __future__ import annotations

from repro import build_network
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.faults import FaultPlan, MessageFaultRule
from repro.serving import (
    AdmissionConfig,
    AsyncGateway,
    NetworkTarget,
    ServingRequest,
    drive,
)

#: Deliveries from orderer to peers are lost for the first 600 ms —
#: commits stall while the orderer keeps accepting, the catch-up burst.
STALL_PLAN = FaultPlan(
    seed=13,
    retry=None,  # the redelivery loop alone must recover the blocks
    messages=(
        MessageFaultRule(channel="orderer_to_peer", drop=1.0, until_ms=600.0),
    ),
    redeliver_after_ms=150.0,
)

BURST = 12
ADMISSION = AdmissionConfig(
    # Sized so the fixed backlog (max of the two overlapping views of
    # outstanding work) stays under shed_high during the stall, while
    # the old double-counting sum lands well past it.
    max_inflight=2 * BURST,
    shed_high=BURST + 6,
    shed_low=BURST,
    max_batch=4,
    linger_ms=0.0,
)


def _request(index: int) -> ServingRequest:
    return ServingRequest(
        index=index,
        session=0,
        payload={
            "chaincode": "supply",
            "fn": "create_item",
            "args": {"item": f"cb-{index}", "owner": "W1"},
            "public": {"item": f"cb-{index}", "to": "W1"},
        },
    )


def test_catchup_burst_is_absorbed_without_spurious_sheds():
    network = build_network(
        NetworkConfig(
            latency=SINGLE_REGION,
            real_signatures=False,
            batch_timeout_ms=50.0,
            fault_plan=STALL_PLAN.to_json(),
        )
    )
    env = network.env
    user = network.register_user("client")
    target = NetworkTarget(network, user)
    gateway = AsyncGateway(target, ADMISSION)

    burst = [_request(i) for i in range(BURST)]
    probe = _request(900)
    # Deep inside the stall window: the burst is dispatched, its
    # blocks are cut and their deliveries dropped, so the live
    # orderer depth and the gateway inflight now overlap ~fully.
    probe.arrival_ms = env.now + 400.0
    signal_at_probe = {}
    # Scheduled before the session's own sleep to the same instant, so
    # it reads the gauges just before the probe is submitted.
    env.timeout(400.0).callbacks.append(
        lambda _fired: signal_at_probe.update(
            queue=gateway.queue_depth(),
            inflight=sum(
                r.dispatched_ms is not None and r.completed_ms is None
                for r in burst
            ),
            depth=target.queue_depth(),
            backlog=gateway.backlog(),
        )
    )
    drive(gateway, burst + [probe])

    # The stall really produced the overlap that used to double-count:
    # the OLD formula (queue + inflight + depth) would have shed the
    # probe, the fixed one (queue + max) admits it with headroom.
    old_backlog = (
        signal_at_probe["queue"]
        + signal_at_probe["inflight"]
        + signal_at_probe["depth"]
    )
    assert signal_at_probe["inflight"] > 0 and signal_at_probe["depth"] > 0
    assert old_backlog >= ADMISSION.shed_high, signal_at_probe
    assert signal_at_probe["backlog"] < ADMISSION.shed_high, signal_at_probe

    # Zero sheds; every request (probe included) commits once the drop
    # window closes and redelivery catches the peers up.
    outcomes = [r.outcome for r in burst + [probe]]
    assert outcomes == ["committed"] * (BURST + 1)
    assert gateway.metrics.shed == 0
    assert network.faults.stats["redeliveries"] > 0
    network.faults.heal()
    env.run(until=env.now + 2_000.0)
    network.verify_convergence()
    assert network.queue_depth() == 0
