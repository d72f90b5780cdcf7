"""Phi-accrual failure detection over heartbeat inter-arrival history.

A binary timeout detector answers "is the node dead?" with a fixed
horizon; the phi-accrual detector (Hayashibara et al., SRDS 2004 — the
design Akka and Cassandra ship) instead reports a *suspicion level*::

    phi(node, now) = -log10( P(next heartbeat arrives later than now) )

under a normal model of the node's recent inter-arrival times.  phi
grows continuously as a heartbeat overstays its expected arrival;
applications pick the threshold matching their false-positive budget —
``phi >= 8`` means the observed silence had odds of about 1e-8 under
the node's healthy cadence.

Two pieces live here:

:class:`PhiAccrualDetector`
    The pure math: per-node inter-arrival windows, suspicion levels,
    and a transition log (who became suspected/cleared, when) that
    :meth:`~repro.faults.monitor.InvariantMonitor.assert_detection`
    checks against the injector's ground-truth fault windows.

:class:`HeartbeatMonitor`
    The simulation harness: one emitter process per monitored node
    (peers and consensus replicas) sending heartbeats to the observer
    through the fault topology — a partitioned or mute node's beats
    never arrive, a gray-slow node beats at a multiple of the healthy
    interval, a lossy link eats beats probabilistically — plus a
    sampler process that records suspicion transitions.
"""

from __future__ import annotations

import math
from collections import deque

from repro.sim import Environment


class PhiAccrualDetector:
    """Suspicion levels from heartbeat inter-arrival history.

    Parameters
    ----------
    threshold:
        phi at or above which a node is *suspected*.
    window:
        How many recent inter-arrival samples feed the normal model.
    min_std_ms:
        Floor on the modelled standard deviation.  A deterministic
        simulation produces perfectly regular heartbeats (zero
        variance); the floor keeps phi finite and sets the detection
        sharpness: conviction lands ~5.6 standard deviations past the
        mean interval.
    first_estimate_ms:
        Conservative mean used before any history exists, so a node is
        not convicted off its very first gap.
    """

    def __init__(
        self,
        threshold: float = 8.0,
        window: int = 128,
        min_std_ms: float = 10.0,
        first_estimate_ms: float = 500.0,
    ):
        self.threshold = threshold
        self.window = window
        self.min_std_ms = min_std_ms
        self.first_estimate_ms = first_estimate_ms
        self._history: dict[str, deque[float]] = {}
        self._last: dict[str, float] = {}
        self._suspected: set[str] = set()
        #: (node, time, suspected) — every suspicion flip, in order.
        self.transitions: list[tuple[str, float, bool]] = []

    def observe(self, node: str, now: float) -> None:
        """A heartbeat from ``node`` arrived at ``now``.

        Inter-arrival samples recorded while the node is suspected are
        *not* folded into its history: the silence of a partition is a
        fault, not a new normal, and learning it would both desensitise
        the detector and convict the healed node of its old gap.
        """
        last = self._last.get(node)
        if last is not None and node not in self._suspected:
            self._history.setdefault(
                node, deque(maxlen=self.window)
            ).append(now - last)
        self._last[node] = now

    def phi(self, node: str, now: float) -> float:
        """Current suspicion level for ``node`` (0 = just heard from)."""
        last = self._last.get(node)
        if last is None:
            return 0.0
        history = self._history.get(node)
        if history:
            mean = sum(history) / len(history)
            variance = sum((x - mean) ** 2 for x in history) / len(history)
            std = max(math.sqrt(variance), self.min_std_ms)
        else:
            mean = self.first_estimate_ms
            std = max(self.first_estimate_ms / 4.0, self.min_std_ms)
        elapsed = now - last
        # P(inter-arrival > elapsed) under N(mean, std).
        z = (elapsed - mean) / std
        p_later = 0.5 * math.erfc(z / math.sqrt(2.0))
        return min(-math.log10(max(p_later, 1e-15)), 15.0)

    def suspicion_levels(self, now: float) -> dict[str, float]:
        """phi for every node ever heard from."""
        return {node: self.phi(node, now) for node in self._last}

    def suspects(self) -> set[str]:
        """Nodes suspected as of the latest :meth:`sample`."""
        return set(self._suspected)

    def sample(self, now: float) -> set[str]:
        """Re-evaluate every node, recording suspicion transitions."""
        for node in self._last:
            suspected = self.phi(node, now) >= self.threshold
            if suspected != (node in self._suspected):
                self.transitions.append((node, now, suspected))
                if suspected:
                    self._suspected.add(node)
                else:
                    self._suspected.discard(node)
        return set(self._suspected)


class HeartbeatMonitor:
    """Heartbeat emitters plus a detector sampler, as sim processes.

    Each monitored node emits a heartbeat every ``interval_ms``
    multiplied by its current :meth:`~repro.faults.FaultInjector.service_factor`
    (a gray-slow node visibly slows its cadence).  The beat transits
    the ``node -> "client"`` link: an asymmetric (mute) partition or a
    lossy link loses it even while the node keeps receiving and
    committing — exactly the failure a ledger-side invariant cannot
    see but an operator must.

    Crashed nodes emit nothing.  The sampler re-evaluates suspicion
    every ``interval_ms``; call :meth:`stop` before draining the
    simulation to exhaustion (the processes are otherwise immortal).
    """

    def __init__(
        self,
        network,
        interval_ms: float = 100.0,
        threshold: float = 8.0,
        nodes: list[str] | None = None,
        detector: PhiAccrualDetector | None = None,
    ):
        self.network = network
        self.env: Environment = network.env
        self.interval_ms = interval_ms
        self.detector = detector or PhiAccrualDetector(threshold=threshold)
        self.nodes = list(nodes) if nodes is not None else self._default_nodes()
        self.heartbeats_sent = 0
        self.heartbeats_lost = 0
        self._stopped = False
        for name in self.nodes:
            self.env.process(self._emit(name))
        self.env.process(self._sample_loop())

    def _default_nodes(self) -> list[str]:
        names = [f"peer:{i}" for i in range(len(self.network.peers))]
        replicas = self.network.consensus.nodes
        return names + [f"orderer:{i}" for i in range(len(replicas))]

    def stop(self) -> None:
        """Let the emitter/sampler processes wind down."""
        self._stopped = True

    def _node_up(self, name: str) -> bool:
        kind, _, index = name.partition(":")
        if kind == "orderer":
            return not self.network.consensus.nodes[int(index)].crashed
        return self.network.link.up(name)

    def _emit(self, name: str):
        env = self.env
        while not self._stopped:
            link = self.network.link
            yield env.timeout(self.interval_ms * link.service_factor(name))
            if self._stopped or not self._node_up(name):
                continue
            transit = link.one_way(
                name, "client", self.network.config.latency.client_to_peer
            )
            if transit is None:
                self.heartbeats_lost += 1
                continue
            self.heartbeats_sent += 1
            env.process(self._land(name, transit))

    def _land(self, name: str, transit: float):
        yield self.env.timeout(transit)
        self.detector.observe(name, self.env.now)

    def _sample_loop(self):
        env = self.env
        while not self._stopped:
            yield env.timeout(self.interval_ms)
            if not self._stopped:
                self.detector.sample(env.now)
