"""Degrade-gracefully serving primitives: breakers and hedged queries.

A partitioned or gray-slow backend must cost the serving tier a bounded
amount of work, not a collapse.  Two mechanisms deliver that bound:

:class:`CircuitBreaker`
    Per-target closed/open/half-open state machine.  After
    ``failure_threshold`` consecutive failures the breaker *opens* and
    rejects requests instantly (a :class:`~repro.errors.CircuitOpenError`
    instead of a doomed retry storm against a dark shard).  After a
    seeded exponential-backoff window one *probe* request is let
    through (half-open); its outcome closes the breaker or re-opens it
    with a longer window.

:class:`HedgedQueryClient`
    Tail-tolerant read path (the "hedged requests" idiom of Dean &
    Barroso, *The Tail at Scale*).  A query is dispatched to one peer;
    if no response lands within the observed latency percentile, the
    *same* query is hedged to the next replica.  First response wins,
    the loser is cancelled at the client (queries are read-only, so
    duplicate execution is invisible — exactly-once applies to the
    *response*, enforced by the single-shot completion event).  An
    optional end-to-end ``deadline_budget_ms`` bounds the whole fan-out.

:class:`ResilientShardedTarget`
    The :class:`~repro.serving.gateway.ShardedTarget` with a breaker in
    front of every shard, so an :class:`~repro.serving.gateway.AsyncGateway`
    sheds traffic routed at a dark shard at the ingress instead of
    burning retry budget per request.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.errors import CircuitOpenError, FaultInjectionError, WorkloadError
from repro.fabric.chaincode import TxContext
from repro.fabric.network import FabricNetwork
from repro.serving.gateway import Complete, ShardedTarget
from repro.serving.metrics import percentile
from repro.sim.core import Environment, Event

#: Completed query latencies a :class:`HedgedQueryClient` keeps to set
#: its adaptive hedge deadline.
HEDGE_HISTORY = 256


@dataclass(frozen=True)
class BreakerConfig:
    """Knobs of one circuit breaker."""

    #: Consecutive failures that trip the breaker open.
    failure_threshold: int = 3
    #: First open window before a probe is allowed (ms).
    reset_timeout_ms: float = 500.0
    #: Multiplier applied to the window on every consecutive re-open.
    backoff_factor: float = 2.0
    #: Ceiling on the open window (ms).
    max_reset_timeout_ms: float = 8_000.0
    #: Seeded uniform jitter added to each window (de-synchronises
    #: probes across breakers that tripped together).
    jitter_ms: float = 25.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise WorkloadError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.reset_timeout_ms <= 0:
            raise WorkloadError(
                f"reset_timeout_ms must be positive, got {self.reset_timeout_ms}"
            )
        if self.backoff_factor < 1.0:
            raise WorkloadError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_reset_timeout_ms < self.reset_timeout_ms:
            raise WorkloadError(
                "max_reset_timeout_ms must be >= reset_timeout_ms"
            )
        if self.jitter_ms < 0:
            raise WorkloadError(f"jitter_ms must be >= 0, got {self.jitter_ms}")


class CircuitBreaker:
    """Closed / open / half-open failure isolation for one target.

    Deterministic: probe backoff jitter comes from a RNG seeded with
    the breaker's name, so the same run replays the same probe times.
    """

    def __init__(
        self,
        env: Environment,
        config: BreakerConfig | None = None,
        seed: int = 1,
        name: str = "target",
    ):
        self.env = env
        self.config = config or BreakerConfig()
        self.name = name
        self._rng = random.Random(f"breaker-{seed}-{name}")
        self.state = "closed"
        self._failures = 0
        #: Consecutive opens without an intervening close — the
        #: exponential-backoff exponent.
        self._opened_streak = 0
        self._retry_at = 0.0
        self.stats = {"opens": 0, "probes": 0, "rejected": 0, "closes": 0}

    def allow(self) -> bool:
        """May a request be dispatched right now?

        In the open state, reaching the backoff deadline converts the
        *next* caller into the half-open probe; everyone else is
        rejected until that probe settles.
        """
        if self.state == "closed":
            return True
        if self.state == "open" and self.env.now >= self._retry_at:
            self.state = "half_open"
            self.stats["probes"] += 1
            return True
        self.stats["rejected"] += 1
        return False

    def record_success(self) -> None:
        if self.state != "closed":
            self.stats["closes"] += 1
        self.state = "closed"
        self._failures = 0
        self._opened_streak = 0

    def record_failure(self) -> None:
        self._failures += 1
        if (
            self.state == "half_open"
            or self._failures >= self.config.failure_threshold
        ):
            self._open()

    def _open(self) -> None:
        cfg = self.config
        window = min(
            cfg.reset_timeout_ms * cfg.backoff_factor**self._opened_streak,
            cfg.max_reset_timeout_ms,
        )
        window += self._rng.uniform(0.0, cfg.jitter_ms)
        self._opened_streak += 1
        self._retry_at = self.env.now + window
        self.state = "open"
        self._failures = 0
        self.stats["opens"] += 1


@dataclass(frozen=True)
class QueryOutcome:
    """What a hedged query resolved to."""

    result: Any
    #: Index of the peer whose response won.
    peer: int
    #: True when the winning response came from a hedge, not the primary.
    hedged: bool
    latency_ms: float


class HedgedQueryClient:
    """Latency-percentile hedged dispatch of read-only view queries.

    Queries execute against each peer's *committed* state database —
    the same semantics as :meth:`FabricNetwork.query`, but
    peer-parametrised and charged simulated time: request transit,
    ``query_service_ms`` of peer-side execution (scaled by the peer's
    gray-degradation factor), response transit.  Peers are tried in
    round-robin-rotated order so hedges spread across replicas.

    The hedge deadline adapts: once at least eight latencies have
    completed it is the ``hedge_percentile`` of the last
    ``HEDGE_HISTORY``; before that it is ``hedge_floor_ms`` (default:
    4x the healthy round trip).
    """

    def __init__(
        self,
        network: FabricNetwork,
        query_service_ms: float = 1.0,
        hedge_percentile: float = 0.95,
        hedge_floor_ms: float | None = None,
        deadline_budget_ms: float | None = None,
        hedging_enabled: bool = True,
    ):
        if not 0.0 < hedge_percentile <= 1.0:
            raise WorkloadError(
                f"hedge_percentile must be in (0, 1], got {hedge_percentile}"
            )
        if deadline_budget_ms is not None and deadline_budget_ms <= 0:
            raise WorkloadError(
                "deadline_budget_ms must be positive when set, "
                f"got {deadline_budget_ms}"
            )
        self.network = network
        self.env: Environment = network.env
        self.query_service_ms = query_service_ms
        self.hedge_percentile = hedge_percentile
        self.hedge_floor_ms = hedge_floor_ms
        self.deadline_budget_ms = deadline_budget_ms
        self.hedging_enabled = hedging_enabled
        self._latencies: deque[float] = deque(maxlen=HEDGE_HISTORY)
        self._next_primary = 0
        self.stats = {
            "queries": 0,
            "hedged": 0,
            "primary_wins": 0,
            "hedge_wins": 0,
            "cancelled": 0,
            "lost": 0,
            "deadline_expired": 0,
        }

    # -- public API --------------------------------------------------------

    def query_async(
        self,
        chaincode: str,
        fn: str,
        args: dict[str, Any] | None = None,
        creator: str = "",
    ) -> Event:
        """Dispatch one hedged query; the event resolves to a
        :class:`QueryOutcome` (or fails with
        :class:`~repro.errors.FaultInjectionError` past the deadline
        budget)."""
        outcome = self.env.event()
        self.env.process(
            self._query_process(outcome, chaincode, fn, args or {}, creator)
        )
        return outcome

    def query(
        self,
        chaincode: str,
        fn: str,
        args: dict[str, Any] | None = None,
        creator: str = "",
    ) -> QueryOutcome:
        """Synchronous wrapper: run the simulation until the query
        resolves."""
        outcome = self.query_async(chaincode, fn, args, creator)
        self.env.run(until=outcome)
        return outcome.value

    def hedge_delay_ms(self) -> float:
        """The current hedge deadline (adaptive once history exists)."""
        if len(self._latencies) >= 8:
            return percentile(sorted(self._latencies), self.hedge_percentile)
        if self.hedge_floor_ms is not None:
            return self.hedge_floor_ms
        healthy_rtt = (
            2.0 * self.network.config.latency.client_to_peer
            + self.query_service_ms
        )
        return 4.0 * healthy_rtt

    # -- processes ---------------------------------------------------------

    def _query_process(
        self,
        outcome: Event,
        chaincode: str,
        fn: str,
        args: dict[str, Any],
        creator: str,
    ):
        env = self.env
        peer_count = len(self.network.peers)
        start = self._next_primary
        self._next_primary = (self._next_primary + 1) % peer_count
        order = [(start + i) % peer_count for i in range(peer_count)]
        self.stats["queries"] += 1
        started = env.now
        deadline = (
            None
            if self.deadline_budget_ms is None
            else started + self.deadline_budget_ms
        )
        done = env.event()
        env.process(
            self._attempt(order[0], chaincode, fn, args, creator, done, "primary")
        )
        next_replica = 1
        while not done.triggered:
            waits: list[Event] = [done]
            hedge_timer: Event | None = None
            if self.hedging_enabled and next_replica < len(order):
                hedge_timer = env.timeout(self.hedge_delay_ms())
                waits.append(hedge_timer)
            if deadline is not None:
                remaining = deadline - env.now
                if remaining <= 0:
                    break
                waits.append(env.timeout(remaining))
            if len(waits) == 1:
                # Nothing left to hedge and no deadline: the primary
                # (or an already-launched hedge) is the only hope.
                yield done
                break
            yield env.any_of(waits)
            if done.triggered:
                break
            if deadline is not None and env.now >= deadline:
                break
            if hedge_timer is not None and hedge_timer.triggered:
                self.stats["hedged"] += 1
                env.process(
                    self._attempt(
                        order[next_replica],
                        chaincode,
                        fn,
                        args,
                        creator,
                        done,
                        "hedge",
                    )
                )
                next_replica += 1
        if not done.triggered:
            self.stats["deadline_expired"] += 1
            outcome.fail(
                FaultInjectionError(
                    f"hedged query {chaincode}.{fn} got no response within "
                    f"its {self.deadline_budget_ms}ms deadline budget "
                    f"({next_replica} peer(s) tried)"
                )
            )
            return
        result, peer_index, label = done.value
        latency = env.now - started
        self._latencies.append(latency)
        hedged = label == "hedge"
        self.stats["hedge_wins" if hedged else "primary_wins"] += 1
        outcome.succeed(QueryOutcome(result, peer_index, hedged, latency))

    def _attempt(
        self,
        peer_index: int,
        chaincode: str,
        fn: str,
        args: dict[str, Any],
        creator: str,
        done: Event,
        label: str,
    ):
        """One peer's leg of a hedged query.  A lost or late leg simply
        returns; only the first completed leg may succeed ``done`` (the
        ``triggered`` guard is the exactly-once point)."""
        env = self.env
        network = self.network
        name = f"peer:{peer_index}"
        link = network.link
        hop_ms = network.config.latency.client_to_peer
        arrived = yield from link.send("client", name, hop_ms)
        if not arrived or not link.up(name):
            self.stats["lost"] += 1
            return
        peer = network.peers[peer_index]
        yield env.timeout(self.query_service_ms * link.service_factor(name))
        contract = network.registry.get(chaincode)
        ctx = TxContext(
            chaincode=chaincode,
            statedb=peer.statedb,
            tid="query",
            creator=creator,
        )
        with network.phase_wall.track("query"):
            result = contract.invoke(ctx, fn, dict(args))
        arrived = yield from link.send(name, "client", hop_ms)
        if not arrived:
            self.stats["lost"] += 1
            return
        if done.triggered:
            self.stats["cancelled"] += 1
            return
        done.succeed((result, peer_index, label))


class ResilientShardedTarget(ShardedTarget):
    """:class:`ShardedTarget` with a circuit breaker per shard.

    A request whose routing key lands on a shard with an open breaker
    is *shed at the gateway* — terminal outcome ``shed`` carrying a
    :class:`~repro.errors.CircuitOpenError` — without touching the
    network.  Submission failures (dark shard, exhausted retries) feed
    the shard's breaker; successes close it.
    """

    def __init__(
        self,
        gateway: Any,
        breaker_config: BreakerConfig | None = None,
        seed: int = 1,
    ):
        super().__init__(gateway)
        config = breaker_config or BreakerConfig()
        self.breakers = [
            CircuitBreaker(self.env, config, seed=seed, name=network.chain_name)
            for network in self.sharded.shards
        ]

    def breaker_for(self, key: str) -> CircuitBreaker:
        return self.breakers[self.sharded.shard_index(key)]

    def dispatch(self, batch: list[Any], complete: Complete) -> None:
        for request in batch:
            key = request.payload["key"]
            breaker = self.breaker_for(key)
            if not breaker.allow():
                complete(
                    request,
                    "shed",
                    CircuitOpenError(
                        f"breaker for shard {breaker.name!r} is open; "
                        f"request for key {key!r} shed at the gateway"
                    ),
                )
                continue

            def settled(request, outcome, detail, breaker=breaker) -> None:
                if isinstance(detail, FaultInjectionError):
                    breaker.record_failure()
                else:
                    breaker.record_success()
                complete(request, outcome, detail)

            # One at a time: a routing failure recorded here may open
            # the breaker for the rest of the batch.
            super().dispatch([request], settled)
