"""Fault plans: declarative, seeded schedules of what goes wrong when.

A :class:`FaultPlan` is the single input to the fault-injection layer:
message-fault rules for the latency model, timed fault events (crashes,
outages, partitions, gray failures, Byzantine behaviour), and the
client gateway's retry policy.  Plans serialise to/from JSON so
a failing chaos run can be reproduced from one string — the
``REPRO_FAULT_PLAN`` environment variable (or
``NetworkConfig.fault_plan``) accepts either inline JSON or a path to a
JSON file.

Event kinds:

``crash_peer``
    Take a peer down at ``at_ms`` (time relative to plan attachment)
    and, when ``for_ms`` is given, bring it back up with a full
    crash-recovery replay (state rebuilt from its blockchain) plus
    catch-up of the blocks it missed.
``crash_orderer`` / ``crash_leader``
    Crash one Raft ordering node (``target``) or whoever leads at fire
    time; requires ``NetworkConfig.use_raft``.
``crash_chain`` / ``partition_chain``
    The whole chain is dark to a multi-chain deployment's router until
    ``for_ms`` or ``heal()``.  A partitioned chain keeps its memory and
    in-flight work; a crashed one loses both (every peer and the
    orderer) and comes back from its durable stores, so it needs a
    storage backend.
``owner_outage``
    The view owner is unreachable for ``for_ms``: owner-mediated
    invocations queue until it returns, synchronous view queries raise
    :class:`~repro.errors.OwnerUnavailableError`, and no TLC flush is
    issued meanwhile.

Topology event kinds act on named nodes (``"peer:<i>"``,
``"orderer:<id>"``, ``"orderer"``, ``"client"``); a name that matches
nothing in a deployment never blocks or slows a message, so one plan
can run against networks of different sizes:

``partition``
    ``groups`` lists disjoint sets of node names; every node not listed
    belongs to an implicit *rest* group, and no message crosses a group
    boundary.  With ``symmetric=False`` the listed groups are *mute*:
    they still receive traffic but nothing they send gets out — the
    one-way failure a dying NIC or a misconfigured firewall produces.
``slow_node``
    ``node``'s service times are multiplied by ``factor`` (> 1).
``slow_link``
    The directed link ``src``→``dst`` is ``factor`` (> 1) times slower.
``link_loss``
    Each message on the directed link ``src``→``dst`` is lost with
    probability ``drop`` (in (0, 1]) — one-way loss, the gray failure
    a symmetric drop rule cannot express.

Every timed event without ``for_ms`` holds until ``heal()``.

Byzantine event kinds (require the pbft orderer backend; crashes only
take nodes *down*, these make them *lie*):

``byzantine_equivocate``
    Ordering replica ``target`` starts sending conflicting
    pre-prepares whenever it leads a view.  The conflicting signed
    messages are self-authenticating evidence: the cluster convicts
    the replica and never elects it primary again.  With ``for_ms``
    the behaviour is disarmed after the window (the conviction stays).
``byzantine_corrupt_block``
    Ordering replica ``target`` tampers with its own stored copy of
    every payload it commits.  Consensus is unaffected (the quorum
    certificate fixes the real digest); the corruption is caught and
    attributed by the forensic audit of copies against certificates.
``byzantine_stale_view``
    For ``for_ms`` the view owner serves auditors *stale* view data:
    queries omit entries added after the window opened — the omission
    the Prop 4.1 completeness audit exists to catch.
``byzantine_corrupt_view``
    For ``for_ms`` the view owner serves *tampered* secret payloads in
    place of the real ones — the forgery the Prop 4.1 soundness audit
    exists to catch.

Separately from timed events, ``crash_points`` kill a peer at an exact
*durable operation* rather than an instant of simulated time: each
:class:`CrashPointSpec` arms the target peer's storage guard so its
``at_op``-th WAL/snapshot/fsync operation aborts mid-write (optionally
tearing the record with ``partial_fraction``).  Requires the network to
run with a storage backend.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields

from repro.errors import FaultInjectionError
from repro.fabric.config import RetryPolicy
from repro.sim.faults import MessageFaultRule

#: Every event kind → the shaping fields it reads; any other shaping
#: field must stay at its default.
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    "crash_peer": (),
    "crash_orderer": (),
    "crash_leader": (),
    "crash_chain": (),
    "partition_chain": (),
    "owner_outage": (),
    "byzantine_equivocate": (),
    "byzantine_corrupt_block": (),
    "byzantine_stale_view": (),
    "byzantine_corrupt_view": (),
    "partition": ("groups", "symmetric"),
    "slow_node": ("node", "factor"),
    "slow_link": ("src", "dst", "factor"),
    "link_loss": ("src", "dst", "drop"),
}
EVENT_KINDS = tuple(EVENT_FIELDS)
_SHAPING = {name for names in EVENT_FIELDS.values() for name in names}


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault: what, when, for how long, to whom, and the
    shaping fields its kind reads (:data:`EVENT_FIELDS`)."""

    kind: str
    at_ms: float
    for_ms: float | None = None
    target: int | None = None
    groups: tuple[tuple[str, ...], ...] = ()
    symmetric: bool = True
    node: str | None = None
    src: str | None = None
    dst: str | None = None
    factor: float = 1.0
    drop: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise FaultInjectionError(
                f"unknown fault event kind {self.kind!r}; "
                f"expected one of {EVENT_KINDS}"
            )
        if self.at_ms < 0:
            raise FaultInjectionError(f"at_ms must be >= 0, got {self.at_ms}")
        if self.for_ms is not None and self.for_ms <= 0:
            raise FaultInjectionError(f"for_ms must be > 0, got {self.for_ms}")
        if (
            self.kind
            in (
                "crash_peer",
                "crash_orderer",
                "byzantine_equivocate",
                "byzantine_corrupt_block",
            )
            and self.target is None
        ):
            raise FaultInjectionError(f"{self.kind} event needs a target")
        if (
            self.kind
            in ("owner_outage", "byzantine_stale_view", "byzantine_corrupt_view")
            and self.for_ms is None
        ):
            raise FaultInjectionError(f"{self.kind} needs for_ms")
        if self.kind == "partition":
            if not self.groups or any(not group for group in self.groups):
                raise FaultInjectionError("partition groups must be non-empty")
            seen: set[str] = set()
            for group in self.groups:
                for node in group:
                    if node in seen:
                        raise FaultInjectionError(
                            f"node {node!r} appears in more than one "
                            "partition group"
                        )
                    seen.add(node)
        if self.kind == "slow_node" and not self.node:
            raise FaultInjectionError("slow_node event needs a node name")
        if self.kind in ("slow_link", "link_loss") and not (self.src and self.dst):
            raise FaultInjectionError(f"{self.kind} event needs src and dst")
        if self.kind in ("slow_node", "slow_link") and self.factor <= 1.0:
            raise FaultInjectionError(
                f"{self.kind} factor must be > 1, got {self.factor}"
            )
        if self.kind == "link_loss" and not 0.0 < self.drop <= 1.0:
            raise FaultInjectionError(
                f"link_loss drop probability must be in (0, 1], got {self.drop}"
            )
        for spec in fields(self):
            if (
                spec.name in _SHAPING
                and spec.name not in EVENT_FIELDS[self.kind]
                and getattr(self, spec.name) != spec.default
            ):
                raise FaultInjectionError(
                    f"{self.kind} event does not read {spec.name}"
                )

    def group_of(self, node: str) -> int:
        """Index of the partition group holding ``node``; -1 for the rest."""
        for index, group in enumerate(self.groups):
            if node in group:
                return index
        return -1


@dataclass(frozen=True)
class CrashPointSpec:
    """Kill peer ``target`` at its ``at_op``-th durable operation.

    Op indices are 1-based and count every crash-guarded durability
    operation the peer's store issues (WAL appends and fsyncs, snapshot
    writes and their fsyncs, snapshot prunes) — a pure
    function of the committed workload, so sweeps can enumerate them.
    ``partial_fraction`` makes a crash that lands on a WAL append tear
    the record, writing only that prefix fraction.  With
    ``recover_after_ms`` the injector restarts the peer that long
    (simulated) after the crash fires; without it the peer stays down
    until :meth:`~repro.faults.FaultInjector.heal`.
    """

    target: int
    at_op: int
    partial_fraction: float | None = None
    recover_after_ms: float | None = None

    def __post_init__(self) -> None:
        if self.at_op < 1:
            raise FaultInjectionError(
                f"crash point at_op must be >= 1, got {self.at_op}"
            )
        if self.partial_fraction is not None and not (
            0.0 < self.partial_fraction < 1.0
        ):
            raise FaultInjectionError(
                "crash point partial_fraction must be in (0, 1), got "
                f"{self.partial_fraction}"
            )
        if self.recover_after_ms is not None and self.recover_after_ms <= 0:
            raise FaultInjectionError(
                f"recover_after_ms must be > 0, got {self.recover_after_ms}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """Everything the injector needs, in one reproducible bundle."""

    seed: int = 1
    retry: RetryPolicy | None = field(default_factory=RetryPolicy)
    messages: tuple[MessageFaultRule, ...] = ()
    events: tuple[FaultEvent, ...] = ()
    #: Durable-operation crash points (require a storage backend).
    crash_points: tuple[CrashPointSpec, ...] = ()
    #: How long a peer's deliver service waits before re-fetching a
    #: block whose push was lost (Fabric peers pull blocks and retry;
    #: without redelivery a single dropped block would wedge a replica
    #: until an external heal).
    redeliver_after_ms: float = 250.0

    # -- (de)serialisation ---------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultPlan":
        unknown = set(raw) - {spec.name for spec in fields(cls)}
        if unknown:
            raise FaultInjectionError(
                f"unknown fault-plan keys {sorted(unknown)!r}"
            )
        retry_raw = raw.get("retry", {})
        retry = None if retry_raw is None else RetryPolicy(**retry_raw)
        messages = tuple(
            MessageFaultRule(
                **{
                    **rule,
                    "delay_range_ms": tuple(
                        rule.get("delay_range_ms", (0.0, 0.0))
                    ),
                }
            )
            for rule in raw.get("messages", [])
        )
        # JSON has no tuples: ``groups`` arrives as a list of lists.
        events = tuple(
            FaultEvent(
                **{
                    **event,
                    "groups": tuple(
                        tuple(group) for group in event.get("groups", ())
                    ),
                }
            )
            for event in raw.get("events", [])
        )
        crash_points = tuple(
            CrashPointSpec(**point) for point in raw.get("crash_points", [])
        )
        return cls(
            seed=raw.get("seed", 1),
            retry=retry,
            messages=messages,
            events=events,
            crash_points=crash_points,
            redeliver_after_ms=raw.get("redeliver_after_ms", 250.0),
        )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "retry": None if self.retry is None else vars(self.retry).copy(),
            "messages": [
                {
                    key: list(value) if isinstance(value, tuple) else value
                    for key, value in vars(rule).items()
                }
                for rule in self.messages
            ],
            "events": [vars(event).copy() for event in self.events],
            "crash_points": [vars(point).copy() for point in self.crash_points],
            "redeliver_after_ms": self.redeliver_after_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultInjectionError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise FaultInjectionError("fault plan JSON must be an object")
        return cls.from_dict(raw)

    @classmethod
    def from_source(cls, source: str) -> "FaultPlan":
        """Parse a plan from inline JSON or from a JSON file path."""
        text = source.strip()
        if not text.startswith("{") and os.path.exists(source):
            with open(source, encoding="utf-8") as handle:
                text = handle.read()
        return cls.from_json(text)
