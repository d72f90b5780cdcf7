"""TxListContract (TLC): per-view transaction-id lists (paper §5.4).

Completeness verification needs, for every view, the full list of
transaction ids that *should* be in it.  Transactions cannot be added
to the views themselves by chaincode (that would hand view keys to the
peers), so a separate contract maintains only the id lists: view
definitions are registered on chain as predicate descriptors, and for
each inserted transaction the contract assigns its id to every view
whose predicate its non-secret part satisfies.

To cope with the low update rate of blockchains, updates are batched:
an off-chain :class:`TxListService` accumulates (tid, t[N]) pairs and
writes them to the ledger every ``flush_interval_ms`` in one flush
transaction (the paper uses 30-second intervals).  Completeness can be
tested as of the latest flush time.

State layout::

    def~<view>               — predicate descriptor
    seg~<view>~<seq>         — one list segment per flush: [tid, ...]
    vdata~<view>~<tid>       — (optional) irrevocable view entries
                                carried along with a flush
    last_flush               — timestamp covered by completeness tests
"""

from __future__ import annotations

from typing import Any

from repro.errors import ChaincodeError
from repro.fabric.chaincode import Chaincode, TxContext
from repro.views.predicates import predicate_from_descriptor

CHAINCODE_NAME = "txlist"


class TxListContract(Chaincode):
    """On-chain per-view transaction-id lists with batched updates."""

    name = CHAINCODE_NAME

    def fn_register_view(
        self, ctx: TxContext, view: str, descriptor: dict[str, Any]
    ) -> None:
        """Register a view definition (its predicate descriptor)."""
        key = f"def~{view}"
        if ctx.get_state(key) is not None:
            raise ChaincodeError(f"view {view!r} already registered with TLC")
        # Validate the descriptor is well-formed before storing it.
        predicate_from_descriptor(descriptor)
        ctx.put_state(key, descriptor)

    def fn_flush(
        self,
        ctx: TxContext,
        seq: int,
        updates: list[list[Any]],
        timestamp: float,
        view_data: dict[str, dict[str, Any]] | None = None,
        extra: list[list[str]] | None = None,
    ) -> dict[str, int]:
        """Write one batch of accumulated updates.

        ``updates`` is a list of ``[tid, nonsecret]`` pairs.  The
        contract re-evaluates every registered predicate on chain, so a
        malicious owner cannot silently omit a transaction from a list
        while still recording it (completeness, §4.7 case 3).

        ``extra`` carries explicit ``[view, tid]`` assignments for
        access grants that extend beyond the static predicate — the
        supply-chain workload's historical-access grants, where a
        receiving node gains access to an item's earlier transfers.

        ``view_data`` optionally carries irrevocable view entries
        (tid → encrypted entry per view), letting TLC-managed
        deployments avoid the separate per-request merge transaction.
        """
        definitions = {}
        for key, descriptor in ctx.scan_prefix("def~"):
            definitions[key[len("def~"):]] = predicate_from_descriptor(descriptor)
        assigned: dict[str, list[str]] = {}
        for tid, nonsecret in updates:
            for view, predicate in definitions.items():
                if predicate.matches(nonsecret):
                    assigned.setdefault(view, []).append(tid)
        for view, tid in extra or []:
            bucket = assigned.setdefault(view, [])
            if tid not in bucket:
                bucket.append(tid)
        for view, tids in assigned.items():
            ctx.put_state(f"seg~{view}~{seq:010d}", tids)
        for view, entries in (view_data or {}).items():
            for tid, entry in entries.items():
                ctx.put_state(f"vdata~{view}~{tid}", entry)
        ctx.put_state("last_flush", timestamp)
        return {view: len(tids) for view, tids in assigned.items()}

    def fn_get_list(self, ctx: TxContext, view: str) -> list[str]:
        """Full transaction-id list for a view (query only).

        Deduplicated, first occurrence wins — an id can appear both via
        a predicate match and an explicit grant.
        """
        tids: list[str] = []
        seen: set[str] = set()
        for _key, segment in ctx.scan_prefix(f"seg~{view}~"):
            for tid in segment:
                if tid not in seen:
                    seen.add(tid)
                    tids.append(tid)
        return tids

    def fn_get_view_data(self, ctx: TxContext, view: str) -> dict[str, Any]:
        """Irrevocable entries carried along with flushes (query only)."""
        prefix = f"vdata~{view}~"
        return {
            key[len(prefix):]: value for key, value in ctx.scan_prefix(prefix)
        }

    def fn_last_flush(self, ctx: TxContext) -> float | None:
        """Timestamp through which completeness can be tested."""
        return ctx.get_state("last_flush")


class TxListService:
    """Owner-side batching of TLC updates (the paper's 30 s intervals).

    ``record`` buffers one transaction; ``maybe_flush`` writes a flush
    transaction when the batch is due: work is pending and
    ``flush_interval_ms`` has elapsed since the last flush, the paper's
    rule.  Time comes from the simulation environment through the
    gateway's network.
    """

    def __init__(self, gateway, flush_interval_ms: float = 30_000.0):
        self.gateway = gateway
        self.flush_interval_ms = flush_interval_ms
        self._pending: list[list[Any]] = []
        self._pending_view_data: dict[str, dict[str, Any]] = {}
        self._pending_extra: list[list[str]] = []
        self._seq = 0
        self._last_flush_at = self._now()
        self.flush_count = 0
        #: Durable journal (:class:`repro.storage.OwnerStore`) or None.
        self.store = None
        #: Flush proposals recovered by :meth:`restore` whose commit was
        #: never confirmed — the caller re-submits them (idempotent: a
        #: flush that did commit before the crash lands as a duplicate
        #: segment, and ``fn_get_list`` deduplicates by tid).
        self.recovered_flushes: list = []

    def _now(self) -> float:
        return self.gateway.network.env.now

    @property
    def pending_count(self) -> int:
        """Buffered flush work across all three buffers: business
        updates, explicit extra assignments, and irrevocable view-data
        entries.  ``due()`` and ``build_flush_proposal`` must agree on
        what counts as pending, or buffers flushable only by one of
        them starve."""
        return (
            len(self._pending)
            + len(self._pending_extra)
            + sum(len(entries) for entries in self._pending_view_data.values())
        )

    def register_view(self, view: str, descriptor: dict[str, Any]) -> None:
        """Put the view definition on chain (one-time, per view)."""
        self.gateway.invoke(
            CHAINCODE_NAME,
            "register_view",
            {"view": view, "descriptor": descriptor},
        )

    def record(
        self,
        tid: str,
        nonsecret: dict[str, Any],
        view_data: dict[str, dict[str, Any]] | None = None,
        extra_assignments: list[tuple[str, str]] | None = None,
    ) -> None:
        """Buffer one committed transaction for the next flush.

        ``extra_assignments`` are explicit ``(view, tid)`` pairs for
        grants beyond the static predicates (historical access).
        """
        self._pending.append([tid, nonsecret])
        for view, entries in (view_data or {}).items():
            self._pending_view_data.setdefault(view, {}).update(entries)
        for view, granted_tid in extra_assignments or []:
            self._pending_extra.append([view, granted_tid])
        if self.store is not None:
            self.store.log(
                {
                    "kind": "record",
                    "tid": tid,
                    "nonsecret": nonsecret,
                    "view_data": view_data or {},
                    "extra": [list(pair) for pair in extra_assignments or []],
                }
            )

    def record_extra(
        self,
        extra_assignments: list[tuple[str, str]],
        view_data: dict[str, dict[str, Any]] | None = None,
    ) -> None:
        """Buffer explicit ``(view, tid)`` grants with no new business
        transaction — a historical-access grant issued on its own.  The
        assignments (and any irrevocable entries accompanying them) ride
        in the next flush like any other pending work."""
        for view, granted_tid in extra_assignments:
            self._pending_extra.append([view, granted_tid])
        for view, entries in (view_data or {}).items():
            self._pending_view_data.setdefault(view, {}).update(entries)
        if self.store is not None:
            self.store.log(
                {
                    "kind": "record_extra",
                    "extra": [list(pair) for pair in extra_assignments],
                    "view_data": view_data or {},
                }
            )

    def due(self) -> bool:
        """Whether a flush should happen now.

        True when work is pending in *any* buffer — business updates,
        extra assignments, or view data — and the interval elapsed.
        Testing only ``self._pending`` (as this method once did) starved
        extra-only grants and view-data-only batches: they sat unflushed
        until an unrelated business transaction arrived, silently
        lagging completeness coverage.
        """
        if not self.pending_count:
            return False
        return self._now() - self._last_flush_at >= self.flush_interval_ms

    def build_flush_proposal(self):
        """Drain the buffer into a flush :class:`Proposal`.

        Used by asynchronous callers that submit the proposal themselves
        (the buffer is drained immediately so concurrent invocations do
        not double-flush).  Returns ``None`` when nothing is pending.
        """
        from repro.fabric.endorser import Proposal

        if not self.pending_count:
            return None
        batch, self._pending = self._pending, []
        view_data, self._pending_view_data = self._pending_view_data, {}
        extra, self._pending_extra = self._pending_extra, []
        self._seq += 1
        self._last_flush_at = self._now()
        self.flush_count += 1
        args = {
            "seq": self._seq,
            "updates": batch,
            "timestamp": self._now(),
            "view_data": view_data,
            "extra": extra,
        }
        if self.store is not None:
            # Journal the exact flush before it leaves the owner: after
            # a crash, an intent without a matching flush_done marker is
            # re-submitted verbatim.
            self.store.log({"kind": "flush_intent", **args})
        return Proposal(
            chaincode=CHAINCODE_NAME,
            fn="flush",
            args=args,
            creator=self.gateway.user.user_id,
            contract_write=True,
            kind="txlist-flush",
        )

    def flush(self) -> int:
        """Write all buffered updates in one on-chain transaction.

        Returns the number of flushed items (0 when nothing pending).
        """
        pending = self.pending_count
        proposal = self.build_flush_proposal()
        if proposal is None:
            return 0
        self.gateway.network.submit_sync(proposal)
        self.note_flush_committed(proposal)
        return pending

    def maybe_flush(self) -> int:
        """Flush if due (see :meth:`due`); returns the number of updates
        written."""
        if self.due():
            return self.flush()
        return 0

    # -- owner-side durability ------------------------------------------------

    def attach_store(self, store, replay: bool = True) -> None:
        """Attach a durable journal (:class:`repro.storage.OwnerStore`).

        With ``replay`` (the default), an existing journal is restored
        first — the pending buffers, the flush sequence counter, and
        any un-confirmed flush intents come back exactly as the crashed
        owner process left them.
        """
        self.store = store
        if replay:
            self.restore()

    def restore(self) -> int:
        """Rebuild owner state from the journal; returns entries replayed.

        Un-confirmed flush intents (journaled but with no ``flush_done``
        marker) are rebuilt as proposals in :attr:`recovered_flushes`
        for the caller to re-submit; the sequence counter resumes past
        the highest journaled sequence so a re-flush never collides
        with a batch that did land.
        """
        from repro.fabric.endorser import Proposal

        if self.store is None:
            return 0
        self._pending = []
        self._pending_view_data = {}
        self._pending_extra = []
        pending_intents: dict[int, dict[str, Any]] = {}
        entries = self.store.replay()
        for entry in entries:
            kind = entry.get("kind")
            if kind == "state":
                # Compaction record: the full buffered state at the
                # time of the last confirmed flush.
                self._pending = [list(pair) for pair in entry["pending"]]
                self._pending_view_data = {
                    view: dict(data)
                    for view, data in entry["view_data"].items()
                }
                self._pending_extra = [list(pair) for pair in entry["extra"]]
                self._seq = max(self._seq, entry["seq"])
            elif kind == "record":
                self._pending.append([entry["tid"], entry["nonsecret"]])
                for view, data in entry["view_data"].items():
                    self._pending_view_data.setdefault(view, {}).update(data)
                self._pending_extra.extend(
                    [list(pair) for pair in entry["extra"]]
                )
            elif kind == "record_extra":
                self._pending_extra.extend(
                    [list(pair) for pair in entry["extra"]]
                )
                for view, data in entry["view_data"].items():
                    self._pending_view_data.setdefault(view, {}).update(data)
            elif kind == "flush_intent":
                args = {
                    key: value for key, value in entry.items() if key != "kind"
                }
                pending_intents[entry["seq"]] = args
                self._seq = max(self._seq, entry["seq"])
                # Building the intent drained the buffers; the records
                # replayed so far are inside it, not pending again.
                # Anything journaled after this entry is new work.
                self._pending = []
                self._pending_view_data = {}
                self._pending_extra = []
            elif kind == "flush_done":
                pending_intents.pop(entry["seq"], None)
        self.recovered_flushes = [
            Proposal(
                chaincode=CHAINCODE_NAME,
                fn="flush",
                args=args,
                creator=self.gateway.user.user_id,
                contract_write=True,
                kind="txlist-flush",
            )
            for _seq, args in sorted(pending_intents.items())
        ]
        return len(entries)

    def note_flush_committed(self, proposal) -> None:
        """Mark a flush durable-complete: journal the done marker, then
        compact the journal down to one state record (the entries still
        buffered now).  Crashing between the on-chain commit and this
        marker is safe — the restored owner re-submits the intent and
        the contract's read path deduplicates the resulting segment."""
        if self.store is None or proposal is None:
            return
        self.store.log({"kind": "flush_done", "seq": proposal.args["seq"]})
        self.store.rewrite(
            [
                {
                    "kind": "state",
                    "seq": self._seq,
                    "pending": self._pending,
                    "view_data": self._pending_view_data,
                    "extra": self._pending_extra,
                }
            ]
        )

    def unflushed(self) -> tuple[list[str], list[list[str]]]:
        """Business tids and ``[view, tid]`` grants recorded since the
        last flush."""
        return [tid for tid, _nonsecret in self._pending], self._pending_extra

    def get_list(self, view: str) -> list[str]:
        """Query the on-chain list for a view."""
        return self.gateway.query(CHAINCODE_NAME, "get_list", {"view": view})

    def last_flush(self) -> float | None:
        return self.gateway.query(CHAINCODE_NAME, "last_flush")
