"""Seeded message-fault primitives for the simulation kernel.

The latency model charges every message a fixed delay; this module adds
the *unreliable* part: per-message drop / duplicate / extra-delay
decisions drawn from a seeded RNG, so a faulty run is exactly as
reproducible as a fault-free one.  The kernel layer knows nothing about
Fabric — it answers "what happens to this message on this channel right
now"; :mod:`repro.faults` decides where to ask.

Rules match on a channel name (and optionally a transaction kind and a
time window), and the first matching rule decides the message's fate.

:class:`TopologyFaultModel` holds the plan's topology events
(``partition``, ``slow_node``, ``slow_link``, ``link_loss``) while their
windows are open and answers the per-message questions they raise:
reachability, latency factors and seeded one-way loss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import FaultInjectionError

if TYPE_CHECKING:
    from repro.faults.plan import FaultEvent

#: Channels the Fabric network consults the fault model on.  Drops and
#: delays apply to both; duplication only makes sense client→orderer
#: (a duplicated block delivery cannot re-append to a hash chain).
CHANNELS = ("client_to_orderer", "orderer_to_peer")


@dataclass(frozen=True)
class FaultDecision:
    """What happens to one message: lost, doubled, and/or delayed."""

    drop: bool = False
    duplicate: bool = False
    delay_ms: float = 0.0


NO_FAULT = FaultDecision()


@dataclass(frozen=True)
class MessageFaultRule:
    """One fault rule: match criteria plus seeded fault probabilities.

    ``drop``/``duplicate``/``delay`` are per-message probabilities in
    [0, 1]; a delayed message waits an extra uniform draw from
    ``delay_range_ms``.  ``kind`` restricts the rule to transactions of
    one kind (e.g. ``"txlist-flush"`` to model lost TLC flushes);
    ``from_ms``/``until_ms`` bound the rule to a time window relative
    to plan attachment; ``max_drops`` caps how many messages the rule
    may lose in total (so a plan can lose *exactly one* flush).
    """

    channel: str
    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    delay_range_ms: tuple[float, float] = (0.0, 0.0)
    kind: str | None = None
    from_ms: float = 0.0
    until_ms: float | None = None
    max_drops: int | None = None

    def __post_init__(self) -> None:
        if self.channel not in CHANNELS:
            raise FaultInjectionError(
                f"unknown fault channel {self.channel!r}; "
                f"expected one of {CHANNELS}"
            )
        for name in ("drop", "duplicate", "delay"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultInjectionError(
                    f"rule {name} probability must be in [0, 1], got {value}"
                )
        if self.duplicate and self.channel != "client_to_orderer":
            raise FaultInjectionError(
                "message duplication is only supported on client_to_orderer"
            )
        low, high = self.delay_range_ms
        if low < 0 or high < low:
            raise FaultInjectionError(
                f"invalid delay_range_ms {self.delay_range_ms!r}"
            )


class MessageFaultModel:
    """Deterministic per-message fault decisions from a seeded RNG.

    One instance per run; every decision consumes RNG draws in a fixed
    per-rule order, so two runs over the same message sequence make the
    same decisions.  Drop/duplicate/delay counters per channel are kept
    for reporting.
    """

    def __init__(self, rules: Iterable[MessageFaultRule], seed: int = 1):
        self.rules = list(rules)
        self._rng = random.Random(seed)
        self._drops_by_rule = [0] * len(self.rules)
        self.dropped: dict[str, int] = {}
        self.duplicated: dict[str, int] = {}
        self.delayed: dict[str, int] = {}

    def decide(
        self, channel: str, now: float, kind: str | None = None
    ) -> FaultDecision:
        """The fate of one message on ``channel`` at sim time ``now``.

        The first rule matching (channel, kind, window) decides; later
        rules are not consulted, so a specific rule (e.g. one flush
        kind) placed before a blanket rule takes precedence.
        """
        for index, rule in enumerate(self.rules):
            if rule.channel != channel:
                continue
            if rule.kind is not None and rule.kind != kind:
                continue
            if now < rule.from_ms:
                continue
            if rule.until_ms is not None and now >= rule.until_ms:
                continue
            drop = False
            if rule.drop and (
                rule.max_drops is None
                or self._drops_by_rule[index] < rule.max_drops
            ):
                drop = self._rng.random() < rule.drop
            duplicate = (
                not drop
                and rule.duplicate > 0
                and self._rng.random() < rule.duplicate
            )
            delay_ms = 0.0
            if not drop and rule.delay and self._rng.random() < rule.delay:
                delay_ms = self._rng.uniform(*rule.delay_range_ms)
            if drop:
                self._drops_by_rule[index] += 1
                self.dropped[channel] = self.dropped.get(channel, 0) + 1
            if duplicate:
                self.duplicated[channel] = self.duplicated.get(channel, 0) + 1
            if delay_ms:
                self.delayed[channel] = self.delayed.get(channel, 0) + 1
            if drop or duplicate or delay_ms:
                return FaultDecision(
                    drop=drop, duplicate=duplicate, delay_ms=delay_ms
                )
            return NO_FAULT
        return NO_FAULT


class TopologyFaultModel:
    """Live reachability/degradation state between named nodes.

    The injector activates a topology event (``partition``,
    ``slow_node``, ``slow_link`` or ``link_loss``, a
    :class:`~repro.faults.plan.FaultEvent`) when it fires and releases
    it when its window ends; the network asks this model three
    questions per message: *can src reach dst right now* (partitions),
    *how much slower is this link or node* (degradation factors
    multiply), and *did this particular message get lost* (seeded
    one-way loss).  Like the message model, loss draws consume RNG in
    arrival order, so runs replay exactly.
    """

    def __init__(self, seed: int = 1):
        self._rng = random.Random(seed ^ 0x709010)
        self._active: list[FaultEvent] = []
        self.blocked = 0
        self.link_drops = 0

    def activate(self, event: FaultEvent) -> None:
        self._active.append(event)

    def release(self, event: FaultEvent) -> None:
        if event in self._active:
            self._active.remove(event)

    def clear(self) -> None:
        """Release everything at once (a heal)."""
        self._active.clear()

    def reachable(self, src: str, dst: str) -> bool:
        """Whether a message from ``src`` can currently reach ``dst``."""
        for event in self._active:
            if event.kind != "partition":
                continue
            src_group = event.group_of(src)
            dst_group = event.group_of(dst)
            if src_group == dst_group:
                continue
            # Symmetric: nothing crosses a group boundary.  Asymmetric:
            # listed groups are mute — they hear the rest of the network
            # but nothing they send gets out.
            if event.symmetric or src_group >= 0:
                self.blocked += 1
                return False
        return True

    def node_factor(self, node: str) -> float:
        """Service-time multiplier for ``node`` (active slowdowns multiply)."""
        factor = 1.0
        for event in self._active:
            if event.kind == "slow_node" and event.node == node:
                factor *= event.factor
        return factor

    def link_factor(self, src: str, dst: str) -> float:
        """Latency multiplier for the directed link ``src``→``dst``."""
        factor = 1.0
        for event in self._active:
            if event.kind == "slow_link" and event.src == src and event.dst == dst:
                factor *= event.factor
        return factor

    def link_lost(self, src: str, dst: str) -> bool:
        """Seeded loss draw for one message on ``src``→``dst``.

        Only consumes RNG when a loss event is active on the link, so
        plans without link loss leave the stream untouched.
        """
        for event in self._active:
            if event.kind == "link_loss" and event.src == src and event.dst == dst:
                if self._rng.random() < event.drop:
                    self.link_drops += 1
                    return True
        return False
