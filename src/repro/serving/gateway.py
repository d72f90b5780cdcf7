"""Coroutine ingress: pipelined sessions, micro-batches, admission control.

The :class:`AsyncGateway` sits between open-loop client sessions and a
*dispatch target* (a plain channel, a sharded deployment, or a view
manager).  Sessions call :meth:`AsyncGateway.submit` fire-and-forget;
one drain coroutine coalesces the queue into adaptive micro-batches —
cut when ``max_batch`` requests are waiting *or* the oldest has lingered
``linger_ms`` — and dispatches them subject to two admission gates:

- **bounded inflight**: at most ``max_inflight`` requests may be
  dispatched-but-unresolved, which keeps the orderer queue from growing
  without bound and so keeps the latency of *admitted* requests finite;
- **shed watermark with hysteresis**: when the total backlog (gateway
  queue plus the larger of inflight and the target's live
  :meth:`queue_depth` — the two overlap, so summing them would count
  dispatched requests twice) crosses ``shed_high``, new arrivals are
  rejected immediately — and keep being rejected until the backlog
  falls below ``shed_low``, so the gateway does not flap at the
  boundary.  Shedding turns overload into a bounded p99 plus an honest
  shed rate instead of a collapse.

Host-side gateway bookkeeping is attributed to the ``ingress`` phase of
the network's :class:`~repro.fabric.network.PhaseWallClock`, so the
bench closing table separates queueing/batching cost from
endorse/order/commit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import (
    AccessControlError,
    FaultInjectionError,
    LedgerError,
    LedgerViewError,
    WorkloadError,
)
from repro.fabric.endorser import Proposal
from repro.fabric.identity import User
from repro.fabric.network import FabricNetwork
from repro.fabric.peer import ValidationCode
from repro.serving.bridge import SimBridge
from repro.serving.metrics import ServingMetrics
from repro.sim.core import Event


@dataclass
class ServingRequest:
    """One client request flowing through the serving tier.

    The payload is target-specific: chaincode fields for the network
    targets, view-operation fields for the view-manager target.  The
    runtime fields are stamped by the gateway as the request moves.
    """

    index: int
    session: int
    kind: str = "invoke"
    payload: dict[str, Any] = field(default_factory=dict)
    #: Planned arrival time (set by the load generator).
    arrival_ms: float = 0.0
    #: Stamped on :meth:`AsyncGateway.submit` — latency measures from here.
    arrived_ms: float = 0.0
    dispatched_ms: float | None = None
    completed_ms: float | None = None
    #: ``committed`` / ``aborted`` / ``shed`` once terminal.
    outcome: str | None = None
    #: Target-specific detail (CommitNotice, InvokeOutcome, exception).
    detail: Any = None


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of the gateway's batching and admission control."""

    max_inflight: int = 128
    shed_high: int = 288
    shed_low: int = 192
    max_batch: int = 32
    linger_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise WorkloadError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_inflight < 1:
            raise WorkloadError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.shed_low > self.shed_high:
            raise WorkloadError(
                f"shed_low ({self.shed_low}) must not exceed "
                f"shed_high ({self.shed_high})"
            )
        if self.linger_ms < 0:
            raise WorkloadError(f"linger_ms must be >= 0, got {self.linger_ms}")


# -- dispatch targets ----------------------------------------------------------

#: ``complete(request, outcome, detail)`` — the gateway's completion
#: callback.  A target calls it exactly once per dispatched request, at
#: the simulated instant that request's own terminal event fires.
Complete = Callable[["ServingRequest", str, Any], None]


class _ChannelTarget:
    """What the dispatch targets share: the channels they feed.

    Binding a target is what moves those channels to group-commit block
    cutting (:meth:`FabricNetwork.bind_serving_target`) — open-loop
    traffic arrives whether or not the committer has drained.  Ingress
    cost is host-side and deployment-wide; it is attributed to the
    first channel's clock.
    """

    def __init__(self, networks: list[FabricNetwork]):
        self.networks = networks
        self.env = networks[0].env
        self.phase_wall = networks[0].phase_wall
        for network in networks:
            network.bind_serving_target()

    def queue_depth(self) -> int:
        return sum(network.queue_depth() for network in self.networks)


def _verdict(notice: Any) -> str:
    """The outcome a commit notice stands for."""
    return "committed" if notice.code is ValidationCode.VALID else "aborted"


def _request_error(fired: Event) -> Exception:
    """The exception of a failed submission event, if it is one a
    request can die of alone: a chaincode or endorsement error, a policy
    refusal, retries the injected faults exhausted.  Anything else is a
    defect in the simulation, not an outcome, and stops the run."""
    error = fired.value
    if not isinstance(error, (LedgerError, AccessControlError, FaultInjectionError)):
        raise error
    return error


def _complete_when_fired(
    event: Event, request: ServingRequest, complete: Complete
) -> None:
    """Complete ``request`` from its own submission event: the commit
    notice's validation code, or ``aborted`` with the error of a
    submission that failed (see :func:`_request_error`)."""

    def on_fire(fired: Event) -> None:
        if fired.ok:
            complete(request, _verdict(fired.value), fired.value)
        else:
            complete(request, "aborted", _request_error(fired))

    event.callbacks.append(on_fire)


def _chaincode_fields(request: ServingRequest) -> dict[str, Any]:
    """The proposal fields a chaincode payload carries besides its
    ``chaincode``, ``fn`` and ``args``."""
    payload = request.payload
    fields: dict[str, Any] = {
        "public": payload.get("public", {}),
        "contract_write": payload.get("contract_write", False),
    }
    if payload.get("tid") is not None:
        fields["tid"] = payload["tid"]
    return fields


class NetworkTarget(_ChannelTarget):
    """Raw chaincode submissions against one :class:`FabricNetwork`.

    Payload keys: ``chaincode``, ``fn``, ``args`` (plus optional
    ``public``, ``tid``, ``contract_write``).
    """

    def __init__(self, network: FabricNetwork, user: User):
        super().__init__([network])
        self.network = network
        self.user = user

    def dispatch(self, batch: list[ServingRequest], complete: Complete) -> None:
        for request in batch:
            payload = request.payload
            proposal = Proposal(
                chaincode=payload["chaincode"],
                fn=payload["fn"],
                args=payload.get("args", {}),
                creator=self.user.user_id,
                **_chaincode_fields(request),
            )
            _complete_when_fired(self.network.submit(proposal), request, complete)


class ShardedTarget(_ChannelTarget):
    """Key-routed submissions against a :class:`ShardedNetwork`.

    Payload keys as :class:`NetworkTarget` plus ``key``: the routing key
    whose home shard (via the consistent-hash ring) receives the
    submission.
    """

    def __init__(self, gateway: Any):
        # ``gateway`` is a repro.sharding.network.ShardedGateway.
        self.gateway = gateway
        self.sharded = gateway.sharded
        super().__init__(self.sharded.shards)

    def queue_depth(self) -> int:
        return self.sharded.queue_depth()

    def dispatch(self, batch: list[ServingRequest], complete: Complete) -> None:
        """Submit a micro-batch; every request stands alone.

        A request routed to a dark shard (a ``crash_chain`` or
        ``partition_chain`` plan event holds it) is aborted at dispatch
        with the routing error, and a submission that later
        dies to fault injection (e.g. a retry deadline on a dark shard)
        aborts on its own event — other sessions' requests in the same
        batch proceed normally.
        """
        for request in batch:
            payload = request.payload
            try:
                event = self.gateway.submit_async(
                    payload["key"],
                    payload["chaincode"],
                    payload["fn"],
                    payload.get("args", {}),
                    **_chaincode_fields(request),
                )
            except FaultInjectionError as exc:
                complete(request, "aborted", exc)
                continue
            _complete_when_fired(event, request, complete)


class ViewManagerTarget(_ChannelTarget):
    """View-tier operations drained through ``ViewManager.invoke_many``.

    Request kinds and payload keys:

    - ``invoke``: ``fn``, ``args``, ``public``, ``secret`` (optional
      ``extra_views``, ``tid``) — the invokes of a micro-batch go
      through one :meth:`ViewManager.invoke_many_async` and complete
      together, because their view maintenance is one coalesced
      transaction;
    - ``grant`` / ``revoke``: ``view``, ``principal`` — the async RBAC
      path, each completing on its own commit notice (policy errors
      come back as ``aborted``, not a crash);
    - ``audit``: ``view``, ``principal`` (optional ``tids``) — an
      owner-side ``QueryView``, served and completed at dispatch.
    """

    def __init__(self, manager: Any):
        super().__init__([manager.gateway.network])
        self.manager = manager

    def dispatch(self, batch: list[ServingRequest], complete: Complete) -> None:
        from repro.views.manager import ViewInvocation

        manager = self.manager
        rbac = {
            "grant": manager.grant_access_async,
            "revoke": manager.revoke_access_async,
        }
        invokes: list[ServingRequest] = []
        for request in batch:
            kind, payload = request.kind, request.payload
            if kind == "invoke":
                invokes.append(request)
                continue
            if kind != "audit" and kind not in rbac:
                raise WorkloadError(f"unknown serving request kind {kind!r}")
            try:
                if kind == "audit":
                    reply = manager.query_view(
                        payload["view"],
                        payload["principal"],
                        tids=payload.get("tids"),
                    )
                else:
                    event = rbac[kind](payload["view"], payload["principal"])
            except LedgerViewError as exc:
                complete(request, "aborted", exc)
                continue
            if kind == "audit":
                complete(request, "committed", len(reply))
            else:
                _complete_when_fired(event, request, complete)
        if not invokes:
            return
        event = manager.invoke_many_async(
            [
                ViewInvocation(
                    fn=request.payload["fn"],
                    args=request.payload["args"],
                    public=request.payload["public"],
                    secret=request.payload["secret"],
                    extra_views=dict(request.payload.get("extra_views", {})),
                    tid=request.payload.get("tid"),
                )
                for request in invokes
            ]
        )

        def on_fire(fired: Event) -> None:
            if not fired.ok:
                error = _request_error(fired)
                for request in invokes:
                    complete(request, "aborted", error)
                return
            for request, outcome in zip(invokes, fired.value):
                complete(request, _verdict(outcome.notice), outcome)

        event.callbacks.append(on_fire)


# -- the gateway ---------------------------------------------------------------

#: Below this many ms-to-deadline the linger window counts as expired;
#: smaller timeouts cannot reliably advance the simulation clock.
_LINGER_EPSILON_MS = 1e-6


class AsyncGateway:
    """Admission-controlled micro-batching ingress over one target."""

    def __init__(
        self,
        target: Any,
        admission: AdmissionConfig | None = None,
        metrics: ServingMetrics | None = None,
    ):
        self.target = target
        self.env = target.env
        self.admission = admission or AdmissionConfig()
        self.metrics = metrics or ServingMetrics()
        self._queue: deque[ServingRequest] = deque()
        self._inflight = 0
        self._shedding = False
        self._finished = 0
        #: Sizes of every dispatched batch (adaptive batching evidence).
        self.batch_sizes: list[int] = []
        #: Re-armed on every arrival and completion; the drain loop's
        #: level-triggered wakeup (same pattern as the orderer pump).
        self._progress_ev = self.env.event()

    # -- client side -------------------------------------------------------

    def backlog(self) -> int:
        """Queued + outstanding work past the gateway.

        A dispatched-but-unresolved request is usually *also* resident
        in the target's pipeline, so ``inflight`` and the target's live
        :meth:`queue_depth` overlap almost entirely — adding them (as
        this accessor once did) double-counted every admitted request
        between dispatch and commit, which during a catch-up burst
        pushed the apparent backlog past ``shed_high`` and shed traffic
        the system could comfortably absorb.  ``max`` keeps whichever
        view of the outstanding work is currently larger without ever
        counting one request twice.
        """
        return len(self._queue) + max(self._inflight, self.target.queue_depth())

    def queue_depth(self) -> int:
        """Requests waiting in the gateway (not yet dispatched)."""
        return len(self._queue)

    @property
    def shedding(self) -> bool:
        return self._shedding

    def submit(self, request: ServingRequest) -> bool:
        """Accept (or shed) one request; returns True when admitted.

        Called synchronously from session coroutines — fire and forget,
        the open-loop contract: the session never blocks on completion.
        """
        now = self.env.now
        request.arrived_ms = now
        self.metrics.record_arrival(now)
        backlog = self.backlog()
        admission = self.admission
        if self._shedding:
            if backlog <= admission.shed_low:
                self._shedding = False
        elif backlog >= admission.shed_high:
            self._shedding = True
        if self._shedding:
            request.outcome = "shed"
            request.completed_ms = now
            self.metrics.record_shed(now)
            self._finished += 1
            self._signal()
            return False
        self._queue.append(request)
        self._signal()
        return True

    # -- drain loop --------------------------------------------------------

    async def run(self, bridge: SimBridge, expected: int) -> ServingMetrics:
        """Dispatch micro-batches until ``expected`` requests finished.

        ``expected`` counts terminal outcomes (completions + sheds), so
        the loop exits exactly when the open-loop run is drained — no
        close/shutdown choreography between sessions and the gateway.
        """
        env = self.env
        admission = self.admission
        while self._finished < expected:
            if not self._queue:
                await self._wait_progress(bridge)
                continue
            # Adaptive cut: dispatch on size, or once the oldest queued
            # request has waited out the linger window.  The deadline is
            # absolute with an epsilon floor — a relative `linger - age`
            # can underflow to a timeout too small to advance simulated
            # time, which would spin the drain loop at a frozen clock.
            deadline = self._queue[0].arrived_ms + admission.linger_ms
            remaining = deadline - env.now
            if len(self._queue) < admission.max_batch and remaining > _LINGER_EPSILON_MS:
                await bridge.wait(
                    env.any_of(
                        [self._progress_event(), env.timeout(remaining)]
                    )
                )
                continue
            if self._inflight >= admission.max_inflight:
                await self._wait_progress(bridge)
                continue
            room = admission.max_inflight - self._inflight
            with self.target.phase_wall.track("ingress"):
                size = min(len(self._queue), admission.max_batch, room)
                batch = [self._queue.popleft() for _ in range(size)]
                for request in batch:
                    request.dispatched_ms = env.now
                self.batch_sizes.append(size)
                self._inflight += size
                self.metrics.sample_queue(
                    env.now, len(self._queue), self.target.queue_depth()
                )
                self.target.dispatch(batch, self._on_complete)
        return self.metrics

    # -- internals ---------------------------------------------------------

    def _signal(self) -> None:
        if not self._progress_ev.triggered:
            self._progress_ev.succeed()

    def _progress_event(self) -> Event:
        """The live progress event, re-armed if it already fired."""
        if self._progress_ev.triggered:
            self._progress_ev = self.env.event()
        return self._progress_ev

    async def _wait_progress(self, bridge: SimBridge) -> None:
        """Block until an arrival/completion — or return immediately if
        one was signalled since the last wait (spurious wakeups are fine:
        the drain loop re-checks its conditions)."""
        event = self._progress_ev
        if event.triggered:
            self._progress_ev = self.env.event()
            return
        await bridge.wait(event)
        self._progress_ev = self.env.event()

    def _on_complete(self, request: ServingRequest, outcome: str, detail: Any) -> None:
        """One dispatched request reached its outcome (the targets'
        completion callback, called inside that request's own terminal
        sim event — or inside ``dispatch`` for an outcome known there)."""
        now = self.env.now
        request.outcome = outcome
        request.detail = detail
        request.completed_ms = now
        self.metrics.record_completion(
            request.arrived_ms, now, outcome == "committed"
        )
        self._inflight -= 1
        self._finished += 1
        self.metrics.sample_queue(
            now, len(self._queue), self.target.queue_depth()
        )
        self._signal()
