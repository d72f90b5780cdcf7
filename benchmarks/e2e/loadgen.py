"""The benchmark's own load: schedules and the two drivers.

Kept apart from ``repro.serving.loadgen`` and ``repro.bench`` on
purpose — reshaping those must not change what this benchmark offers
the system.  The program receives only the generated requests; the seed
stays here.

*Closed loop*: each client submits a batch, waits for every request of
the batch, then submits the next — a slow system is offered less load.
*Open loop*: requests are submitted at their due times whatever the
system does, and latency is anchored at the due time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.serving import AdmissionConfig, AsyncGateway, ServingRequest, SimBridge
from repro.sim import Environment, Event

# -- closed loop ------------------------------------------------------------------


@dataclass
class ClosedSample:
    """One closed-loop request: when it was submitted, when its event
    fired, and what the event carried."""

    submitted_ms: float
    completed_ms: float
    value: Any

    def stamp(self, fired: Event) -> None:
        """Callback of the request's completion event."""
        self.completed_ms = fired.env.now
        self.value = fired.value


def item_batches(trace: Sequence[Any], batch_size: int) -> Iterator[list[Any]]:
    """Cut a client's trace into batches of concurrent requests.

    Two hops of one item must commit in order, so a request for an item
    already in the batch closes it early.
    """
    batch: list[Any] = []
    items: set[str] = set()
    for request in trace:
        if len(batch) >= batch_size or request.item in items:
            yield batch
            batch, items = [], set()
        batch.append(request)
        items.add(request.item)
    if batch:
        yield batch


#: Clients start within this long of each other.
CLIENT_STAGGER_MS = 1_000.0


def client_start_offsets(seed: int, clients: int) -> list[float]:
    """When each closed-loop client sends its first batch.  Clients on
    machines of their own do not start on the same tick; drawing the
    offsets from the seed also makes the simulated numbers of a
    closed-loop workload depend on it, as the open-loop ones do."""
    rng = random.Random(f"stagger-{seed}")
    return [rng.uniform(0.0, CLIENT_STAGGER_MS) for _ in range(clients)]


def drive_closed_loop(
    env: Environment,
    traces: Sequence[Sequence[Any]],
    start_offsets_ms: Sequence[float],
    submit: Callable[[int, Any, dict[int, Any]], Event],
    batch_size: int,
) -> list[ClosedSample]:
    """Run one client process per trace to completion.

    ``submit(client, request, done)`` hands one request to the system and
    returns its completion event; ``done`` maps the trace indices of the
    client's finished requests to their event values (the view workloads
    turn history indices into transaction ids with it).
    """
    samples: list[ClosedSample] = []

    def client(index: int, trace: Sequence[Any]):
        done: dict[int, Any] = {}
        yield env.timeout(start_offsets_ms[index])
        for batch in item_batches(trace, batch_size):
            events = []
            for request in batch:
                sample = ClosedSample(env.now, 0.0, None)
                samples.append(sample)
                event = submit(index, request, done)
                event.callbacks.append(sample.stamp)
                events.append(event)
            values = yield env.all_of(events)
            for request, value in zip(batch, values):
                done[request.index] = value

    env.run(
        until=env.all_of(
            [env.process(client(i, trace)) for i, trace in enumerate(traces)]
        )
    )
    return samples


# -- open loop --------------------------------------------------------------------


def poisson_due_times(
    rng: random.Random, rate_tps: float, count: int, start_ms: float
) -> list[float]:
    """Due times of a Poisson process at ``rate_tps``, given that exactly
    ``count`` arrivals fall in the ``count / rate_tps`` seconds after
    ``start_ms``: conditioned on their number, Poisson arrivals are
    uniform order statistics.  Fixing the number keeps the offered load
    of a run from wandering with the seed while the gaps stay
    exponential-like and bursty."""
    span_ms = count / rate_tps * 1000.0
    return sorted(start_ms + rng.random() * span_ms for _ in range(count))


def counter_schedule(
    seed: int, rate_tps: float, count: int, sessions: int, start_ms: float, label: str
) -> list[ServingRequest]:
    """Conflict-free counter bumps: every request has its own key."""
    rng = random.Random(f"counter-{seed}-{label}")
    requests = []
    for index, due in enumerate(poisson_due_times(rng, rate_tps, count, start_ms)):
        key = f"{label}-{index:06d}"
        requests.append(
            ServingRequest(
                index=index,
                session=index % sessions,
                kind="invoke",
                payload={
                    "chaincode": "counter",
                    "fn": "bump",
                    "args": {"key": key, "amount": 1 + index % 5},
                    "key": key,
                    "tid": f"{label}-tx-{index:07d}",
                },
                arrival_ms=due,
            )
        )
    return requests


#: Composition of every 40 view-mix requests: 80 % invokes, 15 % reads,
#: 5 % access changes (revoke, then the re-grant of the same principal).
VIEW_MIX_BLOCK = ("invoke",) * 32 + ("audit",) * 6 + ("access",) * 2
#: Tids a view read may name.
READ_WINDOW = 32
#: A read names only invokes due at least this long before it, so they
#: have committed by the time the read is served in order.
READ_LAG_MS = 2_000.0


@dataclass
class ViewMixPlan:
    """The view-mix schedule plus what the gate needs to know about it."""

    requests: list[ServingRequest]
    #: view name -> principals authorized once every request was served.
    authorized: dict[str, set[str]] = field(default_factory=dict)


def view_mix_schedule(
    seed: int,
    rate_tps: float,
    count: int,
    sessions: int,
    start_ms: float,
    views: Sequence[str],
    principals: dict[str, list[str]],
) -> ViewMixPlan:
    """Invokes, bounded reads and revoke/re-grant pairs over ``views``.

    The mix is exact per block of 40 requests (shuffled inside the
    block), so request counts do not wander with the seed.  State is
    tracked in schedule order so that no request is a policy error when
    the system serves them in order: a read is by a principal authorized
    at that point, a revoke names an authorized principal, and each
    revoke is followed by the re-grant of the principal it removed.
    """
    rng = random.Random(f"viewmix-{seed}")
    secret = b'{"type":"phone","amount":10,"price_cents":19900}'
    authorized = {view: set(principals[view]) for view in views}
    invoked: dict[str, list[tuple[float, str]]] = {view: [] for view in views}
    revoked: tuple[str, str] | None = None
    kinds: list[str] = []
    while len(kinds) < count:
        block = list(VIEW_MIX_BLOCK)
        rng.shuffle(block)
        kinds.extend(block)
    requests = []
    dues = poisson_due_times(rng, rate_tps, count, start_ms)
    for index, (kind, due) in enumerate(zip(kinds[:count], dues)):
        view = views[rng.randrange(len(views))]
        if kind == "invoke":
            item, tid = f"vm-{index:06d}", f"vm-tx-{index:07d}"
            payload = {
                "fn": "create_item",
                "args": {"item": item, "owner": view},
                "public": {"item": item, "to": view, "view": view},
                "secret": secret,
                "tid": tid,
            }
            invoked[view].append((due, tid))
        elif kind == "audit":
            committed = [
                tid for at, tid in invoked[view] if at <= due - READ_LAG_MS
            ]
            payload = {
                "view": view,
                "principal": sorted(authorized[view])[
                    rng.randrange(len(authorized[view]))
                ],
                "tids": committed[-READ_WINDOW:],
            }
        elif revoked is None:
            kind = "revoke"
            principal = sorted(authorized[view])[0]
            authorized[view].discard(principal)
            revoked = (view, principal)
            payload = {"view": view, "principal": principal}
        else:
            kind = "grant"
            view, principal = revoked
            authorized[view].add(principal)
            revoked = None
            payload = {"view": view, "principal": principal}
        requests.append(
            ServingRequest(
                index=index,
                session=index % sessions,
                kind=kind,
                payload=payload,
                arrival_ms=due,
            )
        )
    return ViewMixPlan(requests=requests, authorized=authorized)


def drive_open_loop(
    target: Any,
    requests: Sequence[ServingRequest],
    sessions: int,
    admission: AdmissionConfig,
) -> AsyncGateway:
    """Submit every request at its due time and run until all are
    terminal.  Sessions never wait for a reply."""
    env = target.env
    bridge = SimBridge(env)
    gateway = AsyncGateway(target, admission=admission)

    async def session(mine: list[ServingRequest]) -> None:
        for request in mine:
            delay = request.arrival_ms - env.now
            if delay > 0:
                await bridge.sleep(delay)
            gateway.submit(request)

    buckets: list[list[ServingRequest]] = [[] for _ in range(sessions)]
    for request in requests:
        buckets[request.session].append(request)
    try:
        bridge.run(
            *[session(bucket) for bucket in buckets if bucket],
            gateway.run(bridge, expected=len(requests)),
        )
    finally:
        bridge.close()
    return gateway
