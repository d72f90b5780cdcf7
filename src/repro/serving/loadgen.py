"""Seeded open-loop load: Poisson arrivals over concurrent sessions.

Closed-loop clients (everything before this package) wait for each
response before sending the next request, so the offered load adapts to
the system and queueing never builds.  An *open-loop* generator sends at
the configured rate whatever the system does — requests arrive by a
Poisson process (seeded exponential inter-arrival gaps), get stamped on
arrival, and their latency includes every millisecond spent queued at
the gateway.  That is the load model under which the knee curve means
something.

Operation mixes are declarative (:class:`ServingMix`) and payloads come
from pluggable *builders*, so the same generator drives counter bumps
against a channel (:func:`counter_builder`, reusing the contention
workload's :class:`~repro.workload.zipf.ZipfSampler` skew) and
EI/ER/HI/HR view traffic with RBAC and audit ops mixed in
(:func:`view_mix_builder`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import WorkloadError
from repro.serving.bridge import SimBridge
from repro.serving.gateway import AdmissionConfig, AsyncGateway, ServingRequest
from repro.serving.metrics import RunMetrics
from repro.workload.zipf import COUNTER_CHAINCODE, ZipfSampler

#: ``builder(index, kind, rng) -> payload`` — target-specific payloads.
PayloadBuilder = Callable[[int, str, random.Random], dict[str, Any]]


@dataclass(frozen=True)
class ServingMix:
    """Relative weights of the operation kinds in a request stream."""

    invoke: float = 1.0
    grant: float = 0.0
    revoke: float = 0.0
    audit: float = 0.0

    def __post_init__(self) -> None:
        weights = self.weights()
        if any(weight < 0 for _, weight in weights):
            raise WorkloadError(f"mix weights must be >= 0, got {self}")
        if sum(weight for _, weight in weights) <= 0:
            raise WorkloadError("mix needs at least one positive weight")

    def weights(self) -> list[tuple[str, float]]:
        return [
            ("invoke", self.invoke),
            ("grant", self.grant),
            ("revoke", self.revoke),
            ("audit", self.audit),
        ]

    def cumulative(self) -> list[tuple[str, float]]:
        """Kinds with cumulative probabilities for inverse-CDF draws."""
        weights = self.weights()
        total = sum(weight for _, weight in weights)
        out: list[tuple[str, float]] = []
        running = 0.0
        for kind, weight in weights:
            if weight <= 0:
                continue
            running += weight / total
            out.append((kind, running))
        out[-1] = (out[-1][0], 1.0)  # guard against float drift
        return out


@dataclass(frozen=True)
class OpenLoopConfig:
    """One open-loop run: rate, volume, concurrency, seed, mix."""

    offered_tps: float
    requests: int
    sessions: int = 8
    seed: int = 11
    mix: ServingMix = field(default_factory=ServingMix)
    start_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.offered_tps <= 0:
            raise WorkloadError(
                f"offered_tps must be > 0, got {self.offered_tps}"
            )
        if self.requests < 0:
            raise WorkloadError(f"requests must be >= 0, got {self.requests}")
        if self.sessions < 1:
            raise WorkloadError(f"sessions must be >= 1, got {self.sessions}")


class PoissonLoadGenerator:
    """Deterministic Poisson schedule assigned round-robin to sessions."""

    def __init__(self, config: OpenLoopConfig, builder: PayloadBuilder):
        self.config = config
        self.builder = builder

    def schedule(self) -> list[ServingRequest]:
        """The full arrival schedule (same seed → same schedule)."""
        config = self.config
        rng = random.Random(config.seed)
        cumulative = config.mix.cumulative()
        rate_per_ms = config.offered_tps / 1000.0
        now = config.start_ms
        requests: list[ServingRequest] = []
        for index in range(config.requests):
            now += rng.expovariate(rate_per_ms)
            kind = self._draw_kind(rng, cumulative)
            requests.append(
                ServingRequest(
                    index=index,
                    session=index % config.sessions,
                    kind=kind,
                    payload=self.builder(index, kind, rng),
                    arrival_ms=now,
                )
            )
        return requests

    @staticmethod
    def _draw_kind(
        rng: random.Random, cumulative: list[tuple[str, float]]
    ) -> str:
        draw = rng.random()
        for kind, bound in cumulative:
            if draw <= bound:
                return kind
        return cumulative[-1][0]


# -- payload builders ----------------------------------------------------------


def counter_builder(
    hot_keys: int = 8,
    skew: float = 1.2,
    conflict_rate: float = 0.0,
    seed: int = 7,
    prefix: str = "",
) -> PayloadBuilder:
    """Counter bumps with zipf-skewed hot keys (contention workload's
    key model, open-loop).  ``conflict_rate`` is the probability a
    request targets the hot set; the rest touch request-unique cold
    keys.  ``prefix`` namespaces keys so independent runs don't collide.
    """
    sampler = ZipfSampler(hot_keys, skew, seed=seed)

    def build(index: int, kind: str, rng: random.Random) -> dict[str, Any]:
        if kind != "invoke":
            raise WorkloadError(
                f"counter workload only serves 'invoke', got {kind!r}"
            )
        hot = rng.random() < conflict_rate
        if hot:
            key = f"hot-{prefix}{sampler.sample() - 1:02d}"
        else:
            key = f"cold-{prefix}{index:05d}"
        return {
            "chaincode": COUNTER_CHAINCODE,
            "fn": "bump",
            "args": {"key": key, "amount": 1 + index % 5},
            "key": key,
        }

    return build


def view_mix_builder(
    view: str,
    principals: list[str],
    item_prefix: str = "srv",
    owner: str = "M",
) -> PayloadBuilder:
    """Supply-chain-shaped view traffic with RBAC and audit ops.

    ``invoke`` creates a fresh item whose public part matches ``view``'s
    predicate; ``grant``/``revoke`` cycle through ``principals``;
    ``audit`` is a view query by a (previously granted) principal.
    Revokes of never-granted principals come back ``aborted`` — policy
    errors are an outcome, not a crash.
    """
    if not principals:
        raise WorkloadError("view mix needs at least one principal")
    secret = json.dumps(
        {"type": "phone", "amount": 10, "price_cents": 19900}
    ).encode()

    def build(index: int, kind: str, rng: random.Random) -> dict[str, Any]:
        if kind == "invoke":
            item = f"{item_prefix}-{index:05d}"
            return {
                "fn": "create_item",
                "args": {"item": item, "owner": owner},
                "public": {"item": item, "to": owner},
                "secret": secret,
            }
        principal = principals[index % len(principals)]
        if kind in ("grant", "revoke"):
            return {"view": view, "principal": principal}
        if kind == "audit":
            return {"view": view, "principal": principal}
        raise WorkloadError(f"unknown serving request kind {kind!r}")

    return build


# -- the runner ----------------------------------------------------------------


async def _session(
    bridge: SimBridge, gateway: AsyncGateway, requests: list[ServingRequest]
) -> None:
    """One client session: sleep to each arrival, submit, never block."""
    env = gateway.env
    for request in requests:
        delay = request.arrival_ms - env.now
        if delay > 0:
            await bridge.sleep(delay)
        gateway.submit(request)


def drive(gateway: AsyncGateway, requests: list[ServingRequest]) -> None:
    """Feed ``requests`` to ``gateway`` open-loop and drain it.

    One session coroutine per distinct ``request.session`` (sessions
    start in order of first appearance, each submitting its requests in
    list order at their ``arrival_ms``) plus the gateway's drain loop,
    run on the simulation until every request has a terminal outcome.
    """
    bridge = SimBridge(gateway.env)
    sessions: dict[int, list[ServingRequest]] = {}
    for request in requests:
        sessions.setdefault(request.session, []).append(request)
    bridge.run(
        *[_session(bridge, gateway, batch) for batch in sessions.values()],
        gateway.run(bridge, expected=len(requests)),
    )


def run_open_loop(
    target: Any,
    config: OpenLoopConfig,
    builder: PayloadBuilder,
    admission: AdmissionConfig | None = None,
) -> tuple[RunMetrics, list[ServingRequest]]:
    """Drive one open-loop run to completion.

    Returns the finalized :class:`RunMetrics` and the request objects
    (each carrying its arrival/dispatch/completion stamps and outcome)
    for assertions beyond the aggregates.
    """
    requests = PoissonLoadGenerator(config, builder).schedule()
    gateway = AsyncGateway(target, admission=admission)
    drive(gateway, requests)
    return gateway.metrics.finalize(offered_tps=config.offered_tps), requests
