"""PBFT consensus among the ordering nodes (Byzantine fault tolerance).

The Raft-like cluster in :mod:`repro.fabric.raft` tolerates crashes but
cannot misbehave: a crashed orderer stays silent, it never lies.  This
module provides the ordering backend for *Byzantine* scenarios
(``NetworkConfig.orderer_backend = "pbft"`` or
``REPRO_ORDERER_BACKEND=pbft``): ``3f+1`` replicas run the classic
pre-prepare / prepare / commit three-phase protocol (Castro & Liskov),
tolerate up to ``f`` Byzantine replicas, and switch primaries through a
view-change protocol when the current one stalls or equivocates.

Two design points follow the BFT-RFForensics direction named in the
ROADMAP:

- **Signed quorum certificates.**  Every committed sequence number
  retains the ``2f+1`` commit-phase signatures that finalised it (a
  :class:`QuorumCertificate`), and every pre-prepare is signed by its
  primary.  Any replica whose stored copy of a committed payload
  contradicts the certificate digest — or whose signature appears on
  two conflicting pre-prepares for one ``(view, seq)`` — is therefore
  *attributable*: the evidence is self-authenticating and names the
  replica id.
- **Per-view state machine.**  Views are explicit objects
  (:class:`_ViewState`) with a lifecycle (``active`` → ``abandoned``),
  the sequence numbers they committed, and the signed
  :class:`NewViewCertificate` that installed their successor — the
  audit trail a forensics pass walks.

Timing model: an honest instance charges exactly
``consensus_ms`` of simulated time (three phases of a third each), so a
fault-free pbft run is **byte-identical** — block timestamps, tips,
state roots — to the default raft-modelled ordering path, which charges
the same ``ordering_consensus_ms`` as one lump.  Only faulted paths
(view changes) diverge, by construction.

Crypto stand-in: replica signatures are HMAC-SHA256 under per-replica
secrets derived deterministically from the channel name (the same
keyed-MAC substitution the endorsement path uses when
``real_signatures`` is off) — the message flow and verification
semantics of real signatures at a fraction of the wall-clock cost.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import FaultInjectionError, SimulationError
from repro.sim import Environment, Event

#: Byzantine behaviours a replica can be armed with.
BYZANTINE_MODES = ("equivocate", "corrupt")


def payload_digest(payload: Any) -> str:
    """Canonical digest of an ordered payload (a block's tid list)."""
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


class ReplicaKeyring:
    """Per-replica signing secrets, derived deterministically.

    Everyone in the simulation (replicas, the invariant monitor, test
    auditors) can verify any replica's signature; only the replica is
    supposed to *produce* them — a Byzantine replica can forge nothing
    under another id, which is what makes the certificates attributing.
    """

    def __init__(self, chain_name: str, node_count: int):
        self._secrets = {
            node_id: hashlib.sha256(
                f"pbft-{chain_name}-replica-{node_id}".encode("utf-8")
            ).digest()
            for node_id in range(node_count)
        }

    def sign(
        self, replica: int, kind: str, view: int, seq: int, digest: str
    ) -> str:
        message = json.dumps([kind, view, seq, digest]).encode("utf-8")
        return hmac.new(self._secrets[replica], message, hashlib.sha256).hexdigest()

    def verify(
        self,
        replica: int,
        kind: str,
        view: int,
        seq: int,
        digest: str,
        signature: str,
    ) -> bool:
        if replica not in self._secrets:
            return False
        expected = self.sign(replica, kind, view, seq, digest)
        return hmac.compare_digest(expected, signature)


@dataclass(frozen=True)
class SignedMessage:
    """One signed protocol message (pre-prepare / prepare / commit)."""

    kind: str
    view: int
    seq: int
    digest: str
    replica: int
    signature: str

    def verify(self, keyring: ReplicaKeyring) -> bool:
        return keyring.verify(
            self.replica, self.kind, self.view, self.seq, self.digest, self.signature
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "view": self.view,
            "seq": self.seq,
            "digest": self.digest,
            "replica": self.replica,
            "signature": self.signature,
        }


@dataclass(frozen=True)
class QuorumCertificate:
    """``2f+1`` commit-phase signatures finalising one sequence number.

    Retained per block: the proof that the cluster — not any single
    replica — chose this digest at this ``(view, seq)``.  A replica
    later serving a different payload for the same slot is convicted by
    its own cert signature.
    """

    view: int
    seq: int
    digest: str
    #: replica id -> hex HMAC over ("commit", view, seq, digest).
    signatures: dict[int, str]

    def signers(self) -> list[int]:
        return sorted(self.signatures)

    def verify(self, keyring: ReplicaKeyring) -> list[int]:
        """Replica ids whose signatures do NOT verify (empty = intact)."""
        return sorted(
            replica
            for replica, signature in self.signatures.items()
            if not keyring.verify(
                replica, "commit", self.view, self.seq, self.digest, signature
            )
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "view": self.view,
            "seq": self.seq,
            "digest": self.digest,
            "signatures": {str(k): v for k, v in self.signatures.items()},
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "QuorumCertificate":
        return cls(
            view=raw["view"],
            seq=raw["seq"],
            digest=raw["digest"],
            signatures={int(k): v for k, v in raw["signatures"].items()},
        )


@dataclass(frozen=True)
class NewViewCertificate:
    """``2f+1`` signed VIEW-CHANGE messages installing a new view."""

    new_view: int
    previous_view: int
    #: replica id -> hex HMAC over ("view-change", new_view, prev, "").
    signatures: dict[int, str]

    def verify(self, keyring: ReplicaKeyring) -> list[int]:
        return sorted(
            replica
            for replica, signature in self.signatures.items()
            if not keyring.verify(
                replica, "view-change", self.new_view, self.previous_view, "", signature
            )
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "new_view": self.new_view,
            "previous_view": self.previous_view,
            "signatures": {str(k): v for k, v in self.signatures.items()},
        }


@dataclass(frozen=True)
class EquivocationEvidence:
    """Two validly-signed, conflicting pre-prepares for one slot.

    Self-authenticating: both messages carry the same replica's
    signature over the same ``(view, seq)`` with different digests, so
    anyone holding the keyring can convict the replica without trusting
    the reporter.
    """

    replica: int
    view: int
    seq: int
    first: SignedMessage
    second: SignedMessage

    def verify(self, keyring: ReplicaKeyring) -> bool:
        return (
            self.first.replica == self.replica
            and self.second.replica == self.replica
            and self.first.digest != self.second.digest
            and (self.first.view, self.first.seq)
            == (self.second.view, self.second.seq)
            and self.first.verify(keyring)
            and self.second.verify(keyring)
        )


@dataclass
class CommittedEntry:
    """One finalised slot: the payload plus its quorum certificate."""

    seq: int
    view: int
    payload: list[Any]
    digest: str
    cert: QuorumCertificate
    preprepare: SignedMessage


@dataclass
class _ViewState:
    """The per-view state machine node (BFT-RFForensics style)."""

    view: int
    primary: int
    status: str = "active"  # "active" | "abandoned"
    started_at: float = 0.0
    committed_seqs: list[int] = field(default_factory=list)


@dataclass
class _ReplicaState:
    """One ordering replica: its log copy and its (mis)behaviour."""

    node_id: int
    crashed: bool = False
    #: ``None`` (honest), "equivocate" (conflicting pre-prepares when
    #: primary), or "corrupt" (tampers its own committed log copy).
    byzantine: str | None = None
    #: seq -> this replica's stored copy of the committed payload.
    log: dict[int, list[Any]] = field(default_factory=dict)


class PBFTCluster:
    """A fixed-membership PBFT group ordering opaque payloads.

    Parameters
    ----------
    env:
        Shared simulation environment.
    node_count:
        Cluster size; must be at least 4 (``3f+1`` with ``f >= 1``).
    consensus_ms:
        Total simulated time an honest instance charges (three equal
        phases) — matched to ``NetworkConfig.ordering_consensus_ms`` so
        honest pbft runs are byte-identical to the raft-modelled path.
    view_timeout_ms:
        Progress timer: how long replicas wait for a primary before
        starting a view change.
    store:
        Optional :class:`~repro.storage.NodeStore` the per-view log and
        commit certificates are write-ahead-logged through.
    """

    kind = "pbft"

    def __init__(
        self,
        env: Environment,
        node_count: int = 4,
        consensus_ms: float = 5.0,
        view_timeout_ms: float = 150.0,
        chain_name: str = "main",
        store=None,
    ):
        if node_count < 4:
            raise SimulationError(
                f"pbft needs at least 4 replicas (3f+1, f >= 1); "
                f"got {node_count}"
            )
        self.env = env
        self.consensus_ms = consensus_ms
        self.view_timeout_ms = view_timeout_ms
        self.chain_name = chain_name
        self.nodes = [_ReplicaState(node_id=i) for i in range(node_count)]
        #: Byzantine replicas tolerated and the matching quorum size.
        self.f = (node_count - 1) // 3
        self.quorum = 2 * self.f + 1
        self.keyring = ReplicaKeyring(chain_name, node_count)
        #: The cluster-level committed sequence (certified entries).
        self.committed: list[CommittedEntry] = []
        #: Equivocation proofs collected so far (forensics).
        self.evidence: list[EquivocationEvidence] = []
        #: Replicas convicted by evidence; never chosen as primary again.
        self.convicted: set[int] = set()
        #: Per-view state machine, keyed by view number.
        self.views: dict[int, _ViewState] = {
            0: _ViewState(view=0, primary=0, started_at=env.now)
        }
        self.view = 0
        #: New-view certificates, in installation order.
        self.view_change_certs: list[NewViewCertificate] = []
        #: Optional pair-connectivity hook ``(a_id, b_id) -> bool`` set
        #: by the fault injector when a plan carries partitions.  While
        #: ``None`` every path below behaves exactly as before.
        self.connectivity = None
        self.stats = {
            "instances": 0,
            "view_changes": 0,
            "equivocations": 0,
            "corrupted_copies": 0,
            "repaired_copies": 0,
        }
        self._store = store
        self._next_seq = 0
        self._queue: list[tuple[list[Any], Event]] = []
        self._arrival: Event = env.event()
        env.process(self._drive())

    # -- public API ----------------------------------------------------------

    @property
    def primary(self) -> int:
        """The current view's primary replica id."""
        return self.views[self.view].primary

    #: The name the orderer implementations share for "whom a leader
    #: crash hits".
    leader_id = primary

    def replicate(self, payload: Any) -> Event:
        """Order one payload; the event fires with its
        :class:`CommittedEntry` (payload + quorum certificate) once the
        commit quorum is reached.  Instances run strictly in submission
        order — pbft assigns consecutive sequence numbers."""
        event = self.env.event()
        self._queue.append((list(payload), event))
        arrival = self._arrival
        self._arrival = self.env.event()
        arrival.succeed()
        return event

    def crash(self, node_id: int) -> None:
        """Take a replica down (it stops signing and storing)."""
        self.nodes[node_id].crashed = True

    def recover(self, node_id: int) -> None:
        """Bring a crashed replica back, state-transferring the slots it
        missed from the certified cluster log (the certificates make the
        transfer trustless — a lying donor cannot fake a quorum)."""
        node = self.nodes[node_id]
        node.crashed = False
        for entry in self.committed:
            if entry.seq not in node.log:
                node.log[entry.seq] = list(entry.payload)

    def set_byzantine(self, node_id: int, mode: str) -> None:
        """Arm one replica with a Byzantine behaviour.

        At most ``f`` distinct replicas may be Byzantine at once — the
        protocol's safety bound; arming more would make any detection
        claim vacuous.
        """
        if mode not in BYZANTINE_MODES:
            raise FaultInjectionError(
                f"unknown byzantine mode {mode!r}; expected one of "
                f"{BYZANTINE_MODES}"
            )
        already = {n.node_id for n in self.nodes if n.byzantine is not None}
        if node_id not in already and len(already) >= self.f:
            raise FaultInjectionError(
                f"cluster of {len(self.nodes)} tolerates f={self.f} "
                f"byzantine replica(s); {sorted(already)} already armed"
            )
        self.nodes[node_id].byzantine = mode

    def clear_byzantine(self, node_id: int) -> None:
        self.nodes[node_id].byzantine = None

    def committed_payloads(self, node_id: int | None = None) -> list[Any]:
        """Committed payloads in sequence order, as stored by one
        replica (default: the certified cluster-level log)."""
        if node_id is None:
            return [list(entry.payload) for entry in self.committed]
        log = self.nodes[node_id].log
        return [list(log[seq]) for seq in sorted(log)]

    # -- forensics -------------------------------------------------------------

    def attribute(self, evidence: EquivocationEvidence) -> int | None:
        """The replica id an equivocation proof convicts (None if the
        proof does not verify — unattributable noise, not a conviction)."""
        return evidence.replica if evidence.verify(self.keyring) else None

    def forensic_findings(self) -> list[dict[str, Any]]:
        """Audit every committed slot against its quorum certificate.

        Returns one finding per violation, each naming the attributable
        replica: a certificate signature that fails to verify, a
        certificate below quorum size, or a replica whose stored copy
        contradicts the certified digest.  Empty on an intact cluster —
        including one that *survived* attacks, provided the damaged
        copies were repaired (``heal``/``recover``).
        """
        findings: list[dict[str, Any]] = []
        for entry in self.committed:
            for replica in entry.cert.verify(self.keyring):
                findings.append(
                    {
                        "kind": "forged-signature",
                        "replica": replica,
                        "seq": entry.seq,
                        "view": entry.view,
                    }
                )
            if len(entry.cert.signatures) < self.quorum:
                findings.append(
                    {
                        "kind": "sub-quorum-certificate",
                        "replica": None,
                        "seq": entry.seq,
                        "view": entry.view,
                    }
                )
            for node in self.nodes:
                stored = node.log.get(entry.seq)
                if stored is None:
                    continue  # a gap is a liveness issue, not tampering
                if payload_digest(stored) != entry.digest:
                    findings.append(
                        {
                            "kind": "corrupted-copy",
                            "replica": node.node_id,
                            "seq": entry.seq,
                            "view": entry.view,
                        }
                    )
        return findings

    def heal(self) -> None:
        """End the experiment: disarm Byzantine modes, recover crashed
        replicas, and repair tampered log copies from the certified
        entries.  Evidence and convictions are kept — they are the
        attack's paper trail, not damage."""
        for node in self.nodes:
            node.byzantine = None
            if node.crashed:
                self.recover(node.node_id)
            else:
                # A replica that sat out a partition has gaps where the
                # majority side committed without it; fill them by the
                # same certified state transfer a recovery uses.
                for entry in self.committed:
                    if entry.seq not in node.log:
                        node.log[entry.seq] = list(entry.payload)
        repaired = 0
        for entry in self.committed:
            for node in self.nodes:
                stored = node.log.get(entry.seq)
                if stored is not None and payload_digest(stored) != entry.digest:
                    node.log[entry.seq] = list(entry.payload)
                    repaired += 1
        self.stats["repaired_copies"] += repaired

    # -- durability ---------------------------------------------------------------

    def replay_wal(self) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
        """(commit records, view-change records) from the WAL, in order."""
        if self._store is None:
            return [], []
        return (
            self._store.replay_kind("pbft_commit"),
            self._store.replay_kind("pbft_view"),
        )

    # -- internals ------------------------------------------------------------

    def _live(self) -> list[_ReplicaState]:
        return [n for n in self.nodes if not n.crashed]

    def _reachable_pair(self, a: int, b: int) -> bool:
        """Whether replicas ``a`` and ``b`` can exchange messages."""
        if self.connectivity is None or a == b:
            return True
        return self.connectivity(a, b) and self.connectivity(b, a)

    def _connected(self, primary: int) -> list[_ReplicaState]:
        """Live replicas that can exchange messages with ``primary``
        (including the primary itself) — the set whose prepares and
        commits a partition lets the primary actually collect."""
        return [
            n
            for n in self._live()
            if self._reachable_pair(primary, n.node_id)
        ]

    def _sign(self, replica: int, kind: str, view: int, seq: int, digest: str) -> SignedMessage:
        return SignedMessage(
            kind=kind,
            view=view,
            seq=seq,
            digest=digest,
            replica=replica,
            signature=self.keyring.sign(replica, kind, view, seq, digest),
        )

    def _drive(self):
        """Run queued ordering instances strictly sequentially."""
        while True:
            while not self._queue:
                yield self._arrival
            payload, event = self._queue.pop(0)
            seq = self._next_seq
            self._next_seq += 1
            entry = yield from self._commit_instance(seq, payload)
            event.succeed(entry)

    def _commit_instance(self, seq: int, payload: list[Any]):
        """One consensus instance; retries across view changes until a
        commit quorum certifies the payload.  Honest path: exactly three
        phases of ``consensus_ms / 3`` each."""
        env = self.env
        digest = payload_digest(payload)
        phase_ms = self.consensus_ms / 3.0
        self.stats["instances"] += 1
        while True:
            # The honest path must complete at bit-for-bit
            # ``round_start + consensus_ms`` — the raft-modelled path
            # charges that as ONE timeout, and block timestamps land in
            # the header hash, so three accumulated ``consensus_ms/3``
            # charges (whose float sum drifts) would break the
            # byte-identity guarantee.  The last phase therefore charges
            # the exact remainder; the subtraction is exact (Sterbenz)
            # because deadline and now are always within 2x.
            deadline = env.now + self.consensus_ms
            view = self.view
            primary = self.views[view].primary
            leader = self.nodes[primary]

            # --- phase 1: pre-prepare (primary assigns the slot) ---
            yield env.timeout(phase_ms)
            if leader.crashed:
                # No pre-prepare arrives; the progress timer expires and
                # the replicas change views.
                yield env.timeout(max(self.view_timeout_ms - phase_ms, 0.0))
                yield from self._change_view()
                continue
            if leader.byzantine == "equivocate":
                # The primary sends conflicting pre-prepares to disjoint
                # replica subsets.  The conflict surfaces one phase later
                # when replicas exchange prepares and compare digests —
                # the two signed messages ARE the conviction.
                yield env.timeout(phase_ms)
                self._record_equivocation(primary, view, seq, digest, payload)
                yield from self._change_view()
                continue
            preprepare = self._sign(primary, "pre-prepare", view, seq, digest)

            # --- phase 2: prepare (2f+1 matching, signed) ---
            yield env.timeout(phase_ms)
            signers = [n.node_id for n in self._connected(primary)]
            if len(signers) < self.quorum:
                if len(self._live()) < self.quorum:
                    # More than f replicas down: wait for recoveries
                    # rather than burning through views no quorum can
                    # install.
                    yield env.timeout(self.view_timeout_ms)
                    continue
                # Enough replicas are alive but the primary cannot
                # reach a quorum of them — it is on the minority side
                # of a partition.  The majority side's progress timers
                # expire and a view led from their side is installed.
                yield env.timeout(max(self.view_timeout_ms - 2 * phase_ms, 0.0))
                yield from self._change_view()
                continue
            # (Prepare signatures are exchanged; a Byzantine
            # non-primary gains nothing by deviating here — 2f+1 honest
            # matching prepares exist regardless.)

            # --- phase 3: commit (the quorum certificate) ---
            yield env.timeout(deadline - env.now)
            commits = {
                replica: self.keyring.sign(replica, "commit", view, seq, digest)
                for replica in signers
            }
            cert = QuorumCertificate(
                view=view, seq=seq, digest=digest, signatures=commits
            )
            entry = CommittedEntry(
                seq=seq,
                view=view,
                payload=list(payload),
                digest=digest,
                cert=cert,
                preprepare=preprepare,
            )
            self._commit(entry)
            return entry

    def _record_equivocation(
        self, primary: int, view: int, seq: int, digest: str, payload: list[Any]
    ) -> None:
        conflicting = payload_digest([*payload, "<equivocation>"])
        evidence = EquivocationEvidence(
            replica=primary,
            view=view,
            seq=seq,
            first=self._sign(primary, "pre-prepare", view, seq, digest),
            second=self._sign(primary, "pre-prepare", view, seq, conflicting),
        )
        self.evidence.append(evidence)
        self.convicted.add(primary)
        self.stats["equivocations"] += 1

    def _change_view(self):
        """Collect 2f+1 signed VIEW-CHANGEs and install the next view.

        Convicted replicas are skipped as primaries — an equivocator
        would otherwise stall every view it leads, turning one attack
        into a permanent liveness hole.
        """
        env = self.env
        old = self.view
        while len(self._live()) < self.quorum or not any(
            len(self._connected(n.node_id)) >= self.quorum
            for n in self._live()
        ):
            # Either too many replicas are down, or a partition has cut
            # every candidate off from a quorum (e.g. a 2-2 split):
            # keep waiting — progress resumes at recovery/heal.
            yield env.timeout(self.view_timeout_ms)
        new_view = old + 1
        while True:
            candidate = new_view % len(self.nodes)
            node = self.nodes[candidate]
            if (
                not node.crashed
                and candidate not in self.convicted
                and len(self._connected(candidate)) >= self.quorum
            ):
                break
            new_view += 1
            if new_view - old > 2 * len(self.nodes):
                raise SimulationError(
                    "pbft cannot find an eligible primary: every replica "
                    "is crashed, convicted, or partitioned from a quorum"
                )
        # One message round for the view-change exchange.
        yield env.timeout(self.consensus_ms / 3.0)
        signatures = {
            node.node_id: self.keyring.sign(
                node.node_id, "view-change", new_view, old, ""
            )
            for node in self._connected(candidate)
        }
        cert = NewViewCertificate(
            new_view=new_view, previous_view=old, signatures=signatures
        )
        self.views[old].status = "abandoned"
        self.views[new_view] = _ViewState(
            view=new_view, primary=new_view % len(self.nodes), started_at=env.now
        )
        self.view = new_view
        self.view_change_certs.append(cert)
        self.stats["view_changes"] += 1
        if self._store is not None:
            self._store.log_record({"kind": "pbft_view", **cert.to_dict()})

    def _commit(self, entry: CommittedEntry) -> None:
        self.committed.append(entry)
        self.views[entry.view].committed_seqs.append(entry.seq)
        primary = self.views[entry.view].primary
        for node in self.nodes:
            if node.crashed:
                continue  # missed slots are state-transferred on recover
            if not self._reachable_pair(primary, node.node_id):
                # Partitioned away from the committing side: the slot
                # stays a gap (a liveness issue, per the forensic
                # audit) until state transfer at recover()/heal().
                continue
            stored = list(entry.payload)
            if node.byzantine == "corrupt":
                # The replica tampers its own stored copy — the attack
                # the quorum certificate exists to attribute.
                stored = [*stored, "<tampered>"] if not stored else [
                    *stored[:-1],
                    f"{stored[-1]}<tampered>",
                ]
                self.stats["corrupted_copies"] += 1
            node.log[entry.seq] = stored
        if self._store is not None:
            self._store.log_record(
                {
                    "kind": "pbft_commit",
                    "seq": entry.seq,
                    "view": entry.view,
                    "digest": entry.digest,
                    "payload": list(entry.payload),
                    "cert": entry.cert.to_dict(),
                }
            )
