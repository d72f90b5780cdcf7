"""The traced pass: spans around each layer's public functions.

Nothing inside ``src/`` knows about tracing.  :func:`install` replaces
the public entry points of each layer with wrappers that push a span on
a per-thread stack, so a span's parent is whatever wrapped call was
running when it started.  A span's *self* time is its duration minus
the time its child spans cover; per-name call counts and self times are
summed in memory, full span records are kept for one transaction id in
a hundred, and both are handed to the worker to write out at exit.

Two limits follow from wrapping from outside.  Work that runs inside a
simulation process (a generator resumed by ``Environment.step``) and is
not itself a wrapped call lands in ``sim.step``'s self time — the
network's submit/cut/deliver loops, the raft node loops and the 2PC
request process are there.  And with the default pipeline backend
endorsement runs on a thread pool: those spans have no parent, and the
budget (``other`` + layers = run wall) is taken on the main thread.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable

#: Keep full span records for transaction ids ending in these digits.
SAMPLED_TID_SUFFIX = "00"


class Tracer:
    """Span stack, per-name totals and sampled span records."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Name of the benchmark phase totals are filed under.
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._totals: list[dict] = []
        #: ``(name, start, end, parent name, tid, thread)`` of sampled spans.
        self.spans: list[tuple] = []

    def _state(self) -> tuple[list, dict]:
        try:
            return self._local.state
        except AttributeError:
            state = ([], {})
            self._local.state = state
            with self._lock:
                self._totals.append(state[1])
            return state

    def _enter(self, name: str, tid: str | None) -> list:
        stack = self._state()[0]
        if tid is None and stack:
            tid = stack[-1][3]
        frame = [name, 0.0, 0.0, tid]
        stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _exit(self, frame: list, units: float = 0.0) -> None:
        end = self.clock()
        stack, totals = self._state()
        stack.pop()
        name, start, children, tid = frame
        elapsed = end - start
        parent = None
        if stack:
            stack[-1][2] += elapsed
            parent = stack[-1][0]
        key = (self.phase, name)
        total = totals.get(key)
        if total is None:
            totals[key] = [1, elapsed - children, units]
        else:
            total[0] += 1
            total[1] += elapsed - children
            total[2] += units
        if tid is not None and tid.endswith(SAMPLED_TID_SUFFIX):
            self.spans.append(
                (name, start, end, parent, tid, threading.current_thread().name)
            )

    @contextmanager
    def span(self, name: str, tid: str | None = None):
        """An explicit span around a block of benchmark code."""
        frame = self._enter(name, tid)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(
        self,
        name: str,
        fn: Callable,
        tid_of: Callable[..., str | None] | None = None,
        units_of: Callable[..., float] | None = None,
        drain: bool = False,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``tid_of`` and ``units_of`` receive the call's arguments and give
        the span's transaction id and an amount of work (bytes, entries)
        to add to the name's total.  ``drain`` is for generator
        functions: the wrapper runs the generator to its end inside the
        span and returns an iterator over what it produced.
        """
        enter, leave = self._enter, self._exit

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = enter(name, tid_of(*args, **kwargs) if tid_of else None)
            try:
                result = fn(*args, **kwargs)
                return iter(list(result)) if drain else result
            finally:
                leave(frame, units_of(*args, **kwargs) if units_of else 0.0)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def totals(self) -> dict[str, dict[str, dict[str, float]]]:
        """``{phase: {name: {calls, self_s, units}}}`` over all threads."""
        with self._lock:
            buckets = [dict(bucket) for bucket in self._totals]
        merged: dict[str, dict[str, dict[str, float]]] = {}
        for bucket in buckets:
            for (phase, name), (calls, self_s, units) in bucket.items():
                row = merged.setdefault(phase, {}).setdefault(
                    name, {"calls": 0, "self_s": 0.0, "units": 0.0}
                )
                row["calls"] += calls
                row["self_s"] += self_s
                row["units"] += units
        return merged


# -- installation ---------------------------------------------------------------


def _rebind(original: Any, replacement: Any) -> None:
    """Point every ``repro`` module's reference to ``original`` at
    ``replacement`` — ``from x import f`` copies the binding, so patching
    the defining module alone would miss most callers."""
    import sys

    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _proposal_tid(_self: Any, proposal: Any, *_a: Any, **_k: Any) -> str | None:
    return proposal.tid


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer.  Call once, after
    ``import repro`` and before any network is built."""
    from repro.baseline import CrossChainDeployment
    from repro.crypto import envelope, hashing, rsa
    from repro.crypto.symmetric import SymmetricKey
    from repro.fabric import endorser
    from repro.fabric.orderer import BlockCutter, OrderingService
    from repro.fabric.peer import Peer
    from repro.fabric.raft import RaftCluster
    from repro.faults import FaultInjector, InvariantMonitor
    from repro.ledger.chain import Blockchain
    from repro.ledger.statedb import StateDatabase
    from repro.ledger.transaction import Transaction
    from repro.serving import (
        AsyncGateway,
        NetworkTarget,
        SimBridge,
        ViewManagerTarget,
    )
    from repro.sim import Environment
    from repro.storage import NodeStore
    from repro.views import (
        EncryptionBasedManager,
        HashBasedManager,
        ViewManager,
        ViewVerifier,
    )

    def method(cls: type, attr: str, name: str, **options: Any) -> None:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), **options))

    def function(module: Any, attr: str, name: str, **options: Any) -> None:
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(name, original, **options))

    def self_tid(self: Any, *_a: Any, **_k: Any) -> str | None:
        return self.tid

    def message_bytes(_self: Any, data: bytes) -> float:
        return len(data)

    # sim
    method(Environment, "step", "sim.step")
    method(Environment, "process", "sim.process")

    # crypto
    function(rsa, "generate_keypair", "crypto.keygen")
    for cls, attrs in (
        (rsa.RSAPublicKey, ("encrypt", "verify")),
        (rsa.RSAPrivateKey, ("decrypt", "sign")),
    ):
        for attr in attrs:
            method(cls, attr, "crypto.rsa")
    for attr in ("encrypt", "decrypt"):
        method(SymmetricKey, attr, "crypto.aes", units_of=message_bytes)
    for attr in ("seal", "seal_many", "open_sealed"):
        function(envelope, attr, "crypto.seal")
    for attr in ("salted_hash", "sha256", "hmac_sha256"):
        function(hashing, attr, "crypto.hash")

    # ledger
    method(Transaction, "serialize", "ledger.serialize", tid_of=self_tid)
    Transaction.size_bytes = property(  # type: ignore[assignment]
        tracer.wrap("ledger.size_bytes", Transaction.size_bytes.fget, tid_of=self_tid)
    )
    for attr in ("get", "get_with_version", "version_of", "put", "delete"):
        method(StateDatabase, attr, "ledger.statedb")
    method(StateDatabase, "scan_prefix", "ledger.statedb", drain=True)
    method(Blockchain, "append", "ledger.append")
    method(Peer, "current_state_root", "ledger.state_root")

    # fabric
    method(Peer, "endorse", "fabric.endorse", tid_of=_proposal_tid)
    function(
        endorser,
        "assemble_transaction",
        "fabric.assemble",
        tid_of=lambda proposal, *_a, **_k: proposal.tid,
    )
    method(BlockCutter, "add", "fabric.order")
    method(BlockCutter, "cut", "fabric.order")
    method(OrderingService, "build_block", "fabric.order")
    method(Peer, "validate_and_commit", "fabric.commit")
    method(RaftCluster, "replicate", "fabric.raft")

    # views
    def invoke_tid(*_a: Any, tid: str | None = None, **_k: Any) -> str | None:
        return tid

    def entries_served(
        manager: Any, view: str, _requester: str, tids: list[str] | None = None
    ) -> float:
        data = manager.buffer.get(view).data
        return len(data) if tids is None else sum(1 for tid in tids if tid in data)

    method(ViewManager, "invoke_with_secret_async", "views.invoke", tid_of=invoke_tid)
    method(ViewManager, "invoke_many_async", "views.invoke")
    method(ViewManager, "insert_into_view", "views.conceal")
    for cls in (EncryptionBasedManager, HashBasedManager):
        method(cls, "process_secret", "views.conceal")
    method(ViewManager, "query_view", "views.query", units_of=entries_served)
    method(ViewManager, "grant_access_async", "views.access")
    method(ViewManager, "revoke_access_async", "views.access")
    method(ViewVerifier, "verify_soundness", "views.verify")
    method(ViewVerifier, "verify_completeness", "views.verify")

    # serving
    method(
        AsyncGateway,
        "submit",
        "serving.ingress",
        tid_of=lambda _self, request: request.payload.get("tid"),
    )
    method(NetworkTarget, "dispatch", "serving.ingress")
    method(ViewManagerTarget, "dispatch", "serving.ingress")
    method(SimBridge, "run", "serving.bridge")

    # storage
    method(NodeStore, "log_block", "storage.log")
    method(NodeStore, "write_snapshot_for", "storage.log")
    method(NodeStore, "recover_peer", "storage.recover")

    # faults
    method(FaultInjector, "message_decision", "faults.inject")
    method(FaultInjector, "heal", "faults.heal")
    method(InvariantMonitor, "check", "faults.check")

    # baseline
    method(CrossChainDeployment, "submit_request", "baseline.submit")
