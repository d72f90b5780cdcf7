"""Deterministic fault injection and recovery (the chaos layer).

Turns every latent timing bug into a reproducible failing seed: a
:class:`FaultPlan` schedules crashes, outages, partitions, gray
failures and message faults; the :class:`FaultInjector` threads them
through a live network; peers recover by replaying their chains; the
client gateway retries with seeded backoff; and the
:class:`InvariantMonitor` asserts that safety survives all of it.

Typical use::

    plan = FaultPlan(
        seed=11,
        messages=(MessageFaultRule(channel="client_to_orderer", drop=0.1),),
        events=(FaultEvent(kind="crash_leader", at_ms=500.0, for_ms=2_000.0),),
    )
    network = build_network(config)
    injector = FaultInjector(network, plan)
    monitor = InvariantMonitor(network)
    ...  # run the workload
    injector.heal()
    monitor.check()

The same plan, serialised with ``plan.to_json()``, can be applied to
any run via the ``REPRO_FAULT_PLAN`` environment variable or
``NetworkConfig.fault_plan``.
"""

from repro.faults.injector import FaultInjector
from repro.faults.monitor import InvariantMonitor
from repro.faults.plan import (
    CrashPointSpec,
    FaultEvent,
    FaultPlan,
    RetryPolicy,
)
from repro.faults.recovery import catch_up, recover_peer
from repro.sim.faults import (
    FaultDecision,
    MessageFaultModel,
    MessageFaultRule,
    TopologyFaultModel,
)

__all__ = [
    "CrashPointSpec",
    "FaultDecision",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "InvariantMonitor",
    "MessageFaultModel",
    "MessageFaultRule",
    "RetryPolicy",
    "TopologyFaultModel",
    "catch_up",
    "recover_peer",
]
