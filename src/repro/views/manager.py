"""View managers and view readers (paper §5.3).

A **view manager** is the off-chain process a *view owner* runs next to
a blockchain node.  It intercepts client requests, conceals secret
parts, submits transactions, tracks which views each transaction joins,
disseminates view keys, and serves (revocable) or uploads (irrevocable)
view data.  A **view reader** is the client-side counterpart: it
obtains view keys from on-chain access transactions, queries views, and
validates everything it receives against the ledger.

The concrete concealment strategies live in
:mod:`repro.views.encryption_based` and :mod:`repro.views.hash_based`;
this module implements everything the four methods share.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Any

from repro.crypto.envelope import open_sealed, seal, seal_many
from repro.crypto.symmetric import SymmetricKey
from repro.errors import (
    AccessDeniedError,
    DecryptionError,
    OwnerUnavailableError,
    RevocationError,
    VerificationError,
)
from repro.fabric.endorser import Proposal
from repro.fabric.network import CommitNotice, Gateway
from repro.fabric.peer import ValidationCode
from repro.ledger.transaction import fresh_tid
from repro.ledger.transaction import Transaction
from repro.views.buffer import ViewBuffer, ViewRecord
from repro.views.predicates import Predicate
from repro.views.secret import ProcessedSecret
from repro.views import notary
from repro.views import storage_contract
from repro.views.txlist_contract import TxListService
from repro.views.types import Concealment, ViewMode

ACCESS_TX_KIND = "view-access"


def _tampered(processed: ProcessedSecret) -> ProcessedSecret:
    """A Byzantine owner's forgery of one processed secret.

    Hash-based data gets its plaintext bit-flipped (the served secret
    no longer matches the on-chain salted hash — soundness case 2);
    encryption-based data gets a bit-flipped per-transaction key (the
    served key cannot decrypt the on-chain ciphertext).  The envelope
    and the view-key encryption around it stay valid — only an audit
    against the ledger exposes the forgery.
    """
    if processed.plaintext:
        return dataclass_replace(
            processed,
            plaintext=bytes(b ^ 0xFF for b in processed.plaintext),
        )
    if processed.tx_key is not None:
        material = bytes(b ^ 0xFF for b in processed.tx_key.to_bytes())
        return dataclass_replace(
            processed, tx_key=SymmetricKey.from_bytes(material)
        )
    return processed


@dataclass
class InvokeOutcome:
    """Result of one client request handled by a view manager."""

    tid: str
    notice: CommitNotice
    views: list[str]
    processed: ProcessedSecret = field(repr=False, default=None)  # type: ignore[assignment]


@dataclass
class ViewInvocation:
    """One client request in a :meth:`ViewManager.invoke_many` batch."""

    fn: str
    args: dict[str, Any]
    public: dict[str, Any]
    secret: bytes
    extra_views: dict[str, list[str]] = field(default_factory=dict)
    #: Explicit transaction id; ``None`` draws a fresh one.  Benchmarks
    #: and differential tests pin tids so separate runs stay
    #: key-for-key comparable.
    tid: str | None = None


@dataclass
class QueryResult:
    """Decrypted, validated view contents as seen by a reader.

    ``secrets`` maps transaction id → plaintext secret part; for
    encryption-based views ``tx_keys`` additionally carries the
    recovered per-transaction keys.
    """

    view: str
    key_version: int
    secrets: dict[str, bytes]
    tx_keys: dict[str, SymmetricKey] = field(default_factory=dict, repr=False)


class ViewManager(ABC):
    """Common machinery of the four view methods."""

    #: Concealment style of the concrete subclass.
    concealment: Concealment

    def __init__(
        self,
        gateway: Gateway,
        business_chaincode: str = "supply",
        use_txlist: bool = False,
        txlist_flush_interval_ms: float = 30_000.0,
    ):
        self.gateway = gateway
        self.owner = gateway.user
        # Registered with its network, whose InvariantMonitor holds
        # every view of every registered manager to the view oracle.
        gateway.network.view_managers.append(self)
        self.msp = gateway.network.msp
        self.business_chaincode = business_chaincode
        self.buffer = ViewBuffer()
        self.use_txlist = use_txlist
        self.txlist: TxListService | None = (
            TxListService(gateway, txlist_flush_interval_ms)
            if use_txlist
            else None
        )
        if self.txlist is not None and gateway.network.storage is not None:
            # Durable owner: journal the TLC buffers so a crashed owner
            # process restores its pending batch and un-confirmed
            # flushes instead of silently losing them.
            self.txlist.attach_store(
                gateway.network.storage.owner_store(gateway.user.user_id)
            )
        #: tids of access-dissemination transactions, per view (newest last).
        self.access_tx_ids: dict[str, list[str]] = {}
        #: Per-transaction processed-secret data retained by the owner, so
        #: transactions can later be added to further views (the paper's
        #: historical-access grants when an item changes hands).
        self._retained: dict[str, ProcessedSecret] = {}
        #: Simulated insertion time per (view, tid) — the horizon a
        #: Byzantine owner under a ``byzantine_stale_view`` fault snaps
        #: its answers back to (entries inserted after the window
        #: opened are silently omitted, for the completeness audit to
        #: catch).
        self._insert_times: dict[tuple[str, str], float] = {}

    # -- view lifecycle ---------------------------------------------------------

    def create_view(
        self,
        name: str,
        predicate: Predicate,
        mode: ViewMode = ViewMode.REVOCABLE,
    ) -> ViewRecord:
        """Create a view: generate ``K_V`` and initialise on-chain pieces.

        Irrevocable views get a ViewStorage map on chain; TLC-managed
        deployments also register the predicate with the TxListContract.
        """
        record = ViewRecord(
            name=name,
            predicate=predicate,
            mode=mode,
            key=SymmetricKey.generate(),
        )
        self.buffer.add(record)
        if mode is ViewMode.IRREVOCABLE:
            self.gateway.invoke(
                storage_contract.CHAINCODE_NAME,
                "init",
                {"view": name, "concealment": self.concealment.value},
                contract_write=True,
            )
        if self.txlist is not None:
            self.txlist.register_view(name, predicate.descriptor())
        return record

    # -- fault model --------------------------------------------------------------

    def _owner_offline(self) -> bool:
        """Is the view owner inside an injected outage window?"""
        faults = self.gateway.network.faults
        return faults is not None and not faults.owner_available()

    def _await_owner(self):
        """Queue until the view owner is back online (fault injection).

        Owner-mediated invocations are buffered rather than lost: the
        client's request waits out the outage window and proceeds when
        the owner returns.  Multiple windows may overlap, so re-check
        after each wait.
        """
        network = self.gateway.network
        while network.faults is not None and not network.faults.owner_available():
            yield network.env.timeout(network.faults.owner_unavailable_for())

    # -- client request path ------------------------------------------------------

    def invoke_with_secret(
        self,
        fn: str,
        args: dict[str, Any],
        public: dict[str, Any],
        secret: bytes,
        extra_views: dict[str, list[str]] | None = None,
        tid: str | None = None,
    ) -> InvokeOutcome:
        """Handle one client request carrying a secret part.

        Processes the secret (``ProcessSecret``), determines the views
        the transaction belongs to, submits the business transaction
        (with a per-view annotation in its payload), and runs
        ``InsertIntoView`` for every matching view.  Irrevocable views
        additionally get one ViewStorage merge transaction per request
        (or a buffered TLC update when TLC is enabled).

        ``extra_views`` grants access to *older* transactions as part of
        the same request — the supply-chain workload uses this to give a
        receiving node access to an item's historical transfers (§6.2).
        It maps view name → previously committed transaction ids.

        ``tid`` pins the business transaction's id; benchmarks (and the
        sharded differential suite) pass explicit ids so runs stay
        key-for-key comparable across deployments.

        This synchronous form drives the simulation to completion; for
        concurrent clients use :meth:`invoke_with_secret_async`.
        """
        event = self.invoke_with_secret_async(
            fn, args, public, secret, extra_views, tid=tid
        )
        return self.gateway.network.env.run(until=event)

    def invoke_with_secret_async(
        self,
        fn: str,
        args: dict[str, Any],
        public: dict[str, Any],
        secret: bytes,
        extra_views: dict[str, list[str]] | None = None,
        tid: str | None = None,
    ):
        """Asynchronous :meth:`invoke_with_secret`: returns a process
        event whose value is the :class:`InvokeOutcome`, so many client
        requests can be in flight concurrently in the simulation."""
        return self.gateway.network.env.process(
            self._invoke_process(fn, args, public, secret, extra_views or {}, tid=tid)
        )

    def _invoke_process(
        self,
        fn: str,
        args: dict[str, Any],
        public: dict[str, Any],
        secret: bytes,
        extra_views: dict[str, list[str]],
        tid: str | None = None,
    ):
        yield from self._await_owner()
        staged = self._stage(
            [ViewInvocation(fn, args, public, secret, extra_views, tid)]
        )
        notice = yield self.gateway.network.submit(staged[0][-1])
        outcomes = yield from self._settle(staged, [notice])
        return outcomes[0]

    # -- staging and settling, shared by both request paths ------------------------

    def _stage(self, invocations: list[ViewInvocation]) -> list[tuple]:
        """Conceal every secret, then build each request's business
        proposal, its payload annotated with the views it joins.
        Returns ``(invocation, processed, matching records, proposal)``
        per request."""
        processed_list = [self.process_secret(inv.secret) for inv in invocations]
        staged = []
        for inv, processed in zip(invocations, processed_list):
            matching = self.buffer.matching(inv.public)
            tid = inv.tid or fresh_tid()
            annotated_public = dict(inv.public)
            annotated_public["views"] = self._annotate(matching, tid, processed)
            proposal = Proposal(
                chaincode=self.business_chaincode,
                fn=inv.fn,
                args=inv.args,
                public=annotated_public,
                concealed=processed.concealed,
                salt=processed.salt,
                creator=self.owner.user_id,
                tid=tid,
            )
            staged.append((inv, processed, matching, proposal))
        return staged

    def _settle(self, staged: list[tuple], notices: list[CommitNotice]):
        """View bookkeeping for committed requests, then **one**
        maintenance transaction for all of them: the TLC flush when it
        has fallen due, else one ViewStorage ``merge_many`` carrying
        their irrevocable entries.  Returns the outcomes in order.

        A client-side MVCC retry (config.mvcc_retry_attempts)
        re-endorses under a fresh transaction id, so everything follows
        ``notice.tid`` — the id that actually committed.  A request the
        peers rejected joins no view: its outcome is returned, but
        nothing of it is buffered, merged, listed or retained.
        """
        committed = [
            (notice, entry)
            for notice, entry in zip(notices, staged)
            if notice.code is ValidationCode.VALID
        ]
        # Retain all processed secrets before applying extra views, so a
        # request can grant historical access to an earlier transaction
        # of the same batch.
        for notice, (_inv, processed, _matching, _proposal) in committed:
            self._retained[notice.tid] = processed
            self._after_commit(notice.tid, processed)

        pending: dict[str, dict[str, bytes]] = {}
        outcomes = []
        for notice, (inv, processed, matching, proposal) in zip(notices, staged):
            tid = notice.tid
            if notice.code is not ValidationCode.VALID:
                outcomes.append(InvokeOutcome(tid, notice, [], processed))
                continue
            for record in matching:
                self.insert_into_view(record, tid, processed)
            historical, assignments = self._apply_extra_views(inv.extra_views)
            merges: dict[str, dict[str, bytes]] = {
                record.name: {tid: self.view_entry(record, tid, processed)}
                for record in matching
                if record.mode is ViewMode.IRREVOCABLE
            }
            for view_name, entries in historical.items():
                merges.setdefault(view_name, {}).update(entries)
            if self.txlist is not None:
                self.txlist.record(
                    tid,
                    proposal.public,
                    view_data=merges,
                    extra_assignments=assignments,
                )
            for view_name, entries in merges.items():
                pending.setdefault(view_name, {}).update(entries)
            outcomes.append(
                InvokeOutcome(
                    tid=tid,
                    notice=notice,
                    views=[record.name for record in matching],
                    processed=processed,
                )
            )

        network = self.gateway.network
        if self.txlist is not None:
            if self.txlist.due():
                flush = self.txlist.build_flush_proposal()
                yield network.submit(flush)
                self.txlist.note_flush_committed(flush)
        elif pending:
            yield network.submit(
                Proposal(
                    chaincode=storage_contract.CHAINCODE_NAME,
                    fn="merge_many",
                    args={"merges": pending},
                    creator=self.owner.user_id,
                    contract_write=True,
                    kind="view-merge",
                )
            )
        return outcomes

    # -- batched request path ------------------------------------------------------

    def invoke_many(self, invocations: list[ViewInvocation]) -> list[InvokeOutcome]:
        """Handle a batch of client requests, coalescing view maintenance.

        All secrets are processed up front, every business transaction
        is submitted concurrently, and the per-request view maintenance
        is coalesced: **one** ViewStorage ``merge_many`` transaction (or
        one TLC flush when it falls due) carries the whole batch's
        irrevocable entries, instead of the one merge transaction per
        request that :meth:`invoke_with_secret` (the paper's per-request
        path) puts on chain.  That amortises the gateway round-trips and
        the per-transaction ordering and validation overhead.

        Outcomes are returned in request order.
        """
        event = self.invoke_many_async(invocations)
        return self.gateway.network.env.run(until=event)

    def invoke_many_async(self, invocations: list[ViewInvocation]):
        """Asynchronous :meth:`invoke_many`: returns a process event
        whose value is the list of :class:`InvokeOutcome`."""
        return self.gateway.network.env.process(
            self._invoke_many_process(list(invocations))
        )

    def _invoke_many_process(self, invocations: list[ViewInvocation]):
        network = self.gateway.network
        if not invocations:
            return []
        yield from self._await_owner()
        # Every secret is processed up front and all business
        # transactions are in flight at once.
        staged = self._stage(invocations)
        notices = yield network.env.all_of(
            [network.submit(proposal) for *_, proposal in staged]
        )
        return (yield from self._settle(staged, notices))

    def _apply_extra_views(
        self, extra_views: dict[str, list[str]]
    ) -> tuple[dict[str, dict[str, bytes]], list[tuple[str, str]]]:
        """Insert retained older transactions into additional views.

        Returns the irrevocable merge entries these insertions produce
        (keyed by view, riding in the same merge/TLC batch as the
        triggering request) and the ``(view, tid)`` assignments for the
        TxListContract's completeness lists.
        """
        merges: dict[str, dict[str, bytes]] = {}
        assignments: list[tuple[str, str]] = []
        for view_name, tids in extra_views.items():
            record = self.buffer.get(view_name)
            for old_tid in tids:
                if record.contains(old_tid):
                    continue
                retained = self._retained.get(old_tid)
                if retained is None:
                    continue
                self.insert_into_view(record, old_tid, retained)
                assignments.append((view_name, old_tid))
                if record.mode is ViewMode.IRREVOCABLE:
                    merges.setdefault(view_name, {})[old_tid] = self.view_entry(
                        record, old_tid, retained
                    )
        return merges, assignments

    def _annotate(
        self,
        matching: list[ViewRecord],
        tid: str,
        processed: ProcessedSecret,
    ) -> list[str]:
        """Per-view annotation carried inside the transaction payload.

        The transaction names every view it joins — this is the paper's
        "transaction needs to include more information in its payload"
        when it is in many views (Fig 10), and each named view costs
        per-view processing at validation (NetworkConfig.view_entry_ms).
        The encrypted view data itself travels via ViewStorage merges or
        TLC flushes, never inline: inlining would duplicate storage and,
        for revocable views, would survive key rotation.
        """
        return sorted(record.name for record in matching)

    def _after_commit(self, tid: str, processed: ProcessedSecret) -> None:
        """Hook: called once the business transaction commits.

        Subclasses use it to integrate auxiliary data planes (e.g. the
        PDC-backed manager disseminates the plaintext into the private
        data collection's side stores).
        """

    def insert_into_view(
        self, record: ViewRecord, tid: str, processed: ProcessedSecret
    ) -> None:
        """Record a transaction in the owner's buffer (``InsertIntoView``)."""
        record.tids.append(tid)
        record.data[tid] = self._buffered_data(processed)
        self._insert_times[(record.name, tid)] = self.gateway.network.env.now

    # -- access control -------------------------------------------------------------

    def grant_access(self, view_name: str, principal_id: str) -> str:
        """Grant a user (or role) access to a view.

        Seals the current ``K_V`` with the principal's public key and
        records the dissemination on the ledger as a ``view-access``
        transaction.  Returns the transaction id.

        This synchronous form drives the simulation to completion; the
        serving tier (which drives the simulation itself) uses
        :meth:`grant_access_async`.
        """
        event = self.grant_access_async(view_name, principal_id)
        notice = self.gateway.network.env.run(until=event)
        return notice.tid

    def grant_access_async(self, view_name: str, principal_id: str):
        """Asynchronous :meth:`grant_access`: the grant is recorded in
        the owner's buffer immediately and the returned event fires with
        the ``V_access`` transaction's :class:`CommitNotice`."""
        record = self.buffer.get(view_name)
        public_key = self.msp.public_key_of(principal_id)
        record.authorized[principal_id] = public_key
        # V_access carries the full current list of sealed grants (§4.2),
        # so the newest access transaction alone answers "who may read".
        return self._publish_access_async(record, dict(record.authorized))

    def revoke_access(self, view_name: str, principal_id: str) -> str:
        """Revoke a principal's access (revocable views only).

        Rotates ``K_V`` to a fresh key and re-disseminates it to every
        remaining authorized principal (paper §4.2/§4.4).  Returns the
        id of the new access transaction.

        Raises
        ------
        RevocationError
            If the view is irrevocable.
        AccessDeniedError
            If the principal had no access to begin with.
        """
        event = self.revoke_access_async(view_name, principal_id)
        notice = self.gateway.network.env.run(until=event)
        return notice.tid

    def revoke_access_async(self, view_name: str, principal_id: str):
        """Asynchronous :meth:`revoke_access`: key rotation and the
        owner-side bookkeeping happen immediately (a revoked principal
        cannot decrypt anything committed after this call returns); the
        returned event fires with the new ``V_access`` commit notice."""
        record = self.buffer.get(view_name)
        if record.mode is ViewMode.IRREVOCABLE:
            raise RevocationError(
                f"view {view_name!r} is irrevocable; access cannot be revoked"
            )
        if principal_id not in record.authorized:
            raise AccessDeniedError(
                f"{principal_id!r} has no access to view {view_name!r}"
            )
        del record.authorized[principal_id]
        record.offchain.discard(principal_id)
        record.key = SymmetricKey.generate()
        record.key_version += 1
        return self._publish_access_async(record, dict(record.authorized))

    def _publish_access_async(
        self, record: ViewRecord, recipients: dict[str, Any]
    ):
        """Submit one ``V_access`` transaction with sealed view keys.

        The key is sealed for all recipients in one :func:`seal_many`
        pass (sorted for a deterministic grant order in the payload);
        each envelope is byte-compatible with a per-recipient ``seal``.
        The access-transaction id is recorded when the commit notice
        arrives, so concurrent grants stay in commit order.
        """
        principals = sorted(recipients)
        envelopes = seal_many(
            [recipients[principal] for principal in principals],
            record.key.to_bytes(),
        )
        grants = {
            principal: envelope.hex()
            for principal, envelope in zip(principals, envelopes)
        }
        event = self.gateway.submit_async(
            notary.CHAINCODE_NAME,
            "record",
            public={
                "access_view": record.name,
                "key_version": record.key_version,
                "grants": grants,
            },
            kind=ACCESS_TX_KIND,
        )

        def _record_tid(fired) -> None:
            if fired.ok:
                self.access_tx_ids.setdefault(record.name, []).append(
                    fired.value.tid
                )

        event.callbacks.append(_record_tid)
        return event

    def grant_access_offchain(self, view_name: str, principal_id: str) -> bytes:
        """Grant access by delivering ``K_V`` over a secure channel.

        The paper's alternative to the on-chain dissemination
        transaction (§4.1: "the user u that created V can send the key
        to these users via a secured communication channel").  Returns
        the sealed key material to hand to the principal; nothing is
        written to the ledger.
        """
        record = self.buffer.get(view_name)
        public_key = self.msp.public_key_of(principal_id)
        record.authorized[principal_id] = public_key
        record.offchain.add(principal_id)
        payload = json.dumps(
            {
                "view": view_name,
                "key_version": record.key_version,
                "key": record.key.to_bytes().hex(),
            }
        ).encode()
        return seal(public_key, payload)

    # -- owner replication -------------------------------------------------------

    def export_view(self, view_name: str, recipient_id: str) -> bytes:
        """Hand a view over to another owner (sealed bundle).

        The paper notes that "a view can have many view owners" — any
        user with access to all the information of the view can serve
        it.  The bundle carries the definition, mode, current key and
        version, the transaction list, and the per-transaction data, all
        sealed to the recipient's public key.
        """
        from repro.fabric.endorser import encode_value

        record = self.buffer.get(view_name)
        bundle = {
            "name": record.name,
            "predicate": record.predicate.descriptor(),
            "mode": record.mode.value,
            "key": record.key.to_bytes().hex(),
            "key_version": record.key_version,
            "tids": list(record.tids),
            "data": {tid: encode_value(v) for tid, v in record.data.items()},
            "authorized": sorted(record.authorized),
            "offchain": sorted(record.offchain),
            "access_tx_ids": list(self.access_tx_ids.get(view_name, [])),
        }
        recipient_key = self.msp.public_key_of(recipient_id)
        return seal(recipient_key, json.dumps(bundle).encode())

    def import_view(self, owner_user, sealed_bundle: bytes) -> ViewRecord:
        """Adopt a view exported by another owner.

        ``owner_user`` is this manager's identity (holding the private
        key the bundle was sealed to).  After import, this manager can
        serve queries, insert transactions, and grant/revoke access for
        the view exactly like the original owner.
        """
        from repro.fabric.endorser import decode_value
        from repro.views.buffer import ViewRecord as _ViewRecord
        from repro.views.predicates import predicate_from_descriptor

        bundle = json.loads(open_sealed(owner_user.keypair.private, sealed_bundle))
        record = _ViewRecord(
            name=bundle["name"],
            predicate=predicate_from_descriptor(bundle["predicate"]),
            mode=ViewMode(bundle["mode"]),
            key=SymmetricKey.from_bytes(bytes.fromhex(bundle["key"])),
            key_version=bundle["key_version"],
            tids=list(bundle["tids"]),
            data={tid: decode_value(v) for tid, v in bundle["data"].items()},
            authorized={
                principal: self.msp.public_key_of(principal)
                for principal in bundle["authorized"]
                if principal in self.msp
            },
        )
        record.offchain.update(bundle["offchain"])
        self.buffer.add(record)
        self.access_tx_ids[record.name] = list(bundle["access_tx_ids"])
        # Retain per-transaction data so future extra-view grants work.
        for tid in record.tids:
            if tid not in self._retained:
                self._retained[tid] = self._processed_from_buffer(record, tid)
        return record

    # -- queries -------------------------------------------------------------------

    def query_view(
        self,
        view_name: str,
        requester_id: str,
        tids: list[str] | None = None,
    ) -> bytes:
        """Serve a (revocable or irrevocable) view query (``QueryView``).

        The response is the requested entries encrypted under the
        current ``K_V``, sealed freshly with the requester's public key
        for transport.  Each entry is encrypted once per ``K_V``: later
        queries reuse that ciphertext while the buffered data behind it
        is unchanged, and a key rotation (revocation) is what refreshes
        them all.  A requester without current access is refused — and
        even a misbehaving owner that skipped this check would only leak
        ciphertext the revoked user can no longer decrypt, because
        revocation rotated ``K_V``.

        Raises
        ------
        AccessDeniedError
            If the requester is not currently authorized.
        OwnerUnavailableError
            If the view owner is inside an injected outage window —
            queries are synchronous owner interactions, so an offline
            owner cannot serve them (the caller retries after the
            outage; invocations, by contrast, queue via
            :meth:`_await_owner`).
        """
        if self._owner_offline():
            raise OwnerUnavailableError(
                f"owner of view {view_name!r} is offline "
                f"(back in {self.gateway.network.faults.owner_unavailable_for():.0f} ms)"
            )
        record = self.buffer.get(view_name)
        if requester_id not in record.authorized:
            raise AccessDeniedError(
                f"{requester_id!r} is not authorized for view {view_name!r}"
            )
        requested = tids if tids is not None else list(record.tids)
        # Byzantine owner behaviours (fault injection): inside a
        # ``byzantine_stale_view`` window the owner answers as of the
        # window's start, silently omitting later insertions; inside a
        # ``byzantine_corrupt_view`` window it serves tampered secret
        # payloads.  Both are the attacks the Prop 4.1 completeness and
        # soundness audits exist to catch — the served envelope stays
        # perfectly well-formed.  Tampered entries bypass the cache.
        faults = self.gateway.network.faults
        stale_cutoff = faults.stale_view_cutoff() if faults is not None else None
        corrupting = faults is not None and faults.corrupts_views()
        served = record.served_entries()
        entries: dict[str, str] = {}
        for tid in requested:
            data = record.data.get(tid)
            if data is None:
                continue
            if (
                stale_cutoff is not None
                and self._insert_times.get((record.name, tid), 0.0)
                > stale_cutoff
            ):
                continue
            if corrupting:
                processed = _tampered(self._processed_from_buffer(record, tid))
                entries[tid] = self.view_entry(record, tid, processed).hex()
                continue
            hit = served.get(tid)
            if hit is None or hit[0] != data:
                # Keyed by a copy of the buffered data, so an owner that
                # rewrites its buffer in place serves what it now holds.
                entry = self.view_entry(
                    record, tid, self._processed_from_buffer(record, tid)
                )
                hit = served[tid] = (dict(data), entry.hex())
            entries[tid] = hit[1]
        body = json.dumps(
            {
                "view": view_name,
                "key_version": record.key_version,
                "entries": entries,
            }
        ).encode()
        requester_key = self.msp.public_key_of(requester_id)
        return seal(requester_key, body)

    # -- method-specific hooks -------------------------------------------------------

    @abstractmethod
    def process_secret(self, secret: bytes) -> ProcessedSecret:
        """Conceal a secret part for on-chain storage (``ProcessSecret``)."""

    @abstractmethod
    def view_entry(
        self, record: ViewRecord, tid: str, processed: ProcessedSecret
    ) -> bytes:
        """The encrypted per-transaction view entry under ``K_V``:
        ``enc((tid, K_i), K_V)`` for encryption-based views,
        ``enc((tid, t[S]), K_V)`` for hash-based views."""

    @abstractmethod
    def _buffered_data(self, processed: ProcessedSecret) -> Any:
        """What the owner's buffer retains per transaction."""

    @abstractmethod
    def _processed_from_buffer(
        self, record: ViewRecord, tid: str
    ) -> ProcessedSecret:
        """Reconstruct a ProcessedSecret from buffered data (to serve
        queries)."""


class ViewReader:
    """Client-side access to views, with validation against the ledger."""

    def __init__(self, user, gateway: Gateway):
        self.user = user
        self.gateway = gateway
        self.msp = gateway.network.msp
        #: Private keys of roles this reader holds (role id → private key).
        self.role_keys: dict[str, Any] = {}
        #: View keys received over a secure channel instead of the
        #: ledger (view name → (key, version)).
        self.offchain_keys: dict[str, tuple[SymmetricKey, int]] = {}

    def accept_offchain_grant(self, sealed: bytes) -> str:
        """Take delivery of a view key sent over a secure channel.

        Returns the view name the grant is for.
        """
        payload = json.loads(open_sealed(self.user.keypair.private, sealed))
        view_name = payload["view"]
        self.offchain_keys[view_name] = (
            SymmetricKey.from_bytes(bytes.fromhex(payload["key"])),
            payload["key_version"],
        )
        return view_name

    # -- key retrieval ----------------------------------------------------------

    def obtain_view_key(
        self, view_name: str, access_tids: list[str]
    ) -> tuple[SymmetricKey, int]:
        """Recover ``K_V`` from the newest access transaction.

        Walks the given access-transaction ids newest-first, looking for
        a grant sealed for this user (or any role the user holds).
        Keys delivered over a secure channel (off-chain grants) are used
        directly — if the key has since been rotated, decryption of the
        served entries fails and access is effectively revoked.

        Raises
        ------
        AccessDeniedError
            If no access transaction contains a grant this user can open.
        """
        if view_name in self.offchain_keys:
            return self.offchain_keys[view_name]
        chain = self.gateway.network.reference_peer.chain
        for tid in reversed(access_tids):
            tx = chain.get_transaction(tid)
            public = tx.nonsecret.get("public", {})
            if public.get("access_view") != view_name:
                continue
            grants = public.get("grants", {})
            for principal, sealed_hex in grants.items():
                opener = None
                if principal == self.user.user_id:
                    opener = self.user.keypair.private
                elif principal in self.role_keys:
                    opener = self.role_keys[principal]
                if opener is None:
                    continue
                try:
                    material = open_sealed(opener, bytes.fromhex(sealed_hex))
                except DecryptionError:
                    continue
                return SymmetricKey.from_bytes(material), public.get("key_version", 0)
            # Newest access tx exists but holds no grant for us: revoked.
            break
        raise AccessDeniedError(
            f"user {self.user.user_id!r} holds no current grant for "
            f"view {view_name!r}"
        )

    # -- reading ------------------------------------------------------------------

    def read_view(
        self,
        manager: ViewManager,
        view_name: str,
        tids: list[str] | None = None,
        validate: bool = True,
        as_principal: str | None = None,
    ) -> QueryResult:
        """Query a view through its owner and decrypt + validate the result.

        The query runs under the reader's own identity by default; when
        access was granted to a *role* the reader holds (§4.6), the
        query is retried under each held role principal, and the
        response envelope is opened with that role's private key.
        """
        candidates: list[tuple[str, Any]] = []
        if as_principal is None or as_principal == self.user.user_id:
            candidates.append((self.user.user_id, self.user.keypair.private))
        for role_id, role_key in self.role_keys.items():
            if as_principal is None or as_principal == role_id:
                candidates.append((role_id, role_key))
        last_denial: AccessDeniedError | None = None
        for principal, opener in candidates:
            try:
                sealed = manager.query_view(view_name, principal, tids)
            except AccessDeniedError as exc:
                last_denial = exc
                continue
            body = json.loads(open_sealed(opener, sealed))
            view_key, key_version = self.obtain_view_key(
                view_name, manager.access_tx_ids.get(view_name, [])
            )
            return self._decrypt_entries(
                manager, view_name, body["entries"], view_key, key_version, validate
            )
        raise last_denial or AccessDeniedError(
            f"user {self.user.user_id!r} has no principal with access to "
            f"view {view_name!r}"
        )

    def read_irrevocable_view(
        self,
        manager: ViewManager,
        view_name: str,
        validate: bool = True,
    ) -> QueryResult:
        """Read an irrevocable view's data straight from the chain.

        Fetches the encrypted entries from the ViewStorage contract (or
        the TxListContract when the deployment batches view data through
        TLC) and decrypts them with ``K_V`` — no interaction with the
        view owner is needed, which is exactly what makes the grant
        irrevocable.
        """
        if manager.use_txlist:
            raw = self.gateway.query(
                "txlist", "get_view_data", {"view": view_name}
            )
        else:
            raw = self.gateway.query(
                storage_contract.CHAINCODE_NAME, "get_view", {"view": view_name}
            )
        view_key, key_version = self.obtain_view_key(
            view_name, manager.access_tx_ids.get(view_name, [])
        )
        entries = {
            tid: value.hex() if isinstance(value, bytes) else value
            for tid, value in raw.items()
        }
        return self._decrypt_entries(
            manager, view_name, entries, view_key, key_version, validate
        )

    def _decrypt_entries(
        self,
        manager: ViewManager,
        view_name: str,
        entries: dict[str, str],
        view_key: SymmetricKey,
        key_version: int,
        validate: bool,
    ) -> QueryResult:
        secrets: dict[str, bytes] = {}
        tx_keys: dict[str, SymmetricKey] = {}
        chain = self.gateway.network.reference_peer.chain
        for tid, entry_hex in entries.items():
            try:
                entry = view_key.decrypt(bytes.fromhex(entry_hex))
            except DecryptionError as exc:
                raise AccessDeniedError(
                    f"cannot decrypt entry {tid} of view {view_name!r}: "
                    f"view key is stale or access was revoked"
                ) from exc
            payload = json.loads(entry)
            if payload.get("tid") != tid:
                raise VerificationError(
                    f"view {view_name!r}: entry labelled {tid} contains "
                    f"data for {payload.get('tid')!r}"
                )
            onchain_tx = chain.get_transaction(tid)
            secret, tx_key = manager_entry_to_secret(
                manager, payload, onchain_tx, validate
            )
            secrets[tid] = secret
            if tx_key is not None:
                tx_keys[tid] = tx_key
        return QueryResult(
            view=view_name,
            key_version=key_version,
            secrets=secrets,
            tx_keys=tx_keys,
        )


def manager_entry_to_secret(
    manager: ViewManager,
    payload: dict[str, Any],
    onchain_tx: Transaction,
    validate: bool,
) -> tuple[bytes, SymmetricKey | None]:
    """Turn one decrypted view entry into the transaction's secret part.

    Encryption-based entries carry the per-transaction key, which is
    used to decrypt the ciphertext stored on chain (the authenticated
    mode makes a wrong or corrupted key detectable).  Hash-based entries
    carry the secret itself, which is checked against the salted hash
    on chain.

    Raises
    ------
    VerificationError
        If validation is requested and the served data does not match
        the ledger (paper §4.7, case 2).
    """
    from repro.crypto.hashing import verify_salted_hash

    if manager.concealment is Concealment.ENCRYPTION:
        tx_key = SymmetricKey.from_bytes(bytes.fromhex(payload["key"]))
        try:
            secret = tx_key.decrypt(onchain_tx.concealed)
        except DecryptionError as exc:
            raise VerificationError(
                f"transaction {onchain_tx.tid}: served key does not decrypt "
                f"the on-chain ciphertext (corrupted key?)"
            ) from exc
        return secret, tx_key
    secret = bytes.fromhex(payload["secret"])
    if validate and not verify_salted_hash(secret, onchain_tx.salt, onchain_tx.concealed):
        raise VerificationError(
            f"transaction {onchain_tx.tid}: served secret does not match the "
            f"salted hash on chain (tampering detected)"
        )
    return secret, None
