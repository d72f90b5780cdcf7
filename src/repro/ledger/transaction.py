"""Transactions: identifier, non-secret part, concealed secret part.

The paper models a transaction as a 3-tuple ``(tid, t[N], t[S])`` where
``t[N]`` is visible to everyone (and usable by consensus and by view
predicates) while ``t[S]`` is concealed — stored either encrypted (EI/ER)
or as a salted hash (HI/HR).  This module is method-agnostic: the
``concealed`` field simply carries whatever bytes the view manager
produced for the secret part, plus an optional ``salt`` for the
hash-based methods.

Serialization is canonical (sorted-key JSON with hex-encoded byte
fields) so digests and byte-size accounting are deterministic.  A
transaction is immutable, so the first encoding also settles its size
and its Merkle leaf digest: both are kept on the object, and the block
cutter, the block builder and every validating peer read them instead
of encoding the same fields again.
"""

from __future__ import annotations

import itertools
import json
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.hashing import sha256
from repro.crypto.merkle import leaf_hash

_tid_counter = itertools.count(1)
_tid_lock = threading.Lock()


def fresh_tid(prefix: str = "tx") -> str:
    """Mint a process-unique transaction identifier."""
    with _tid_lock:
        return f"{prefix}-{next(_tid_counter):08d}"


def _canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


@dataclass(frozen=True)
class Transaction:
    """One ledger transaction.

    Attributes
    ----------
    tid:
        Unique transaction identifier.
    kind:
        Discriminator for the transaction's role (``"invoke"``,
        ``"view-merge"``, ``"txlist-flush"``, ``"2pc-prepare"``, ...).
        Part of the non-secret data.
    nonsecret:
        The public attributes ``t[N]`` — a JSON-able mapping.  View
        predicates are evaluated over this part only.
    concealed:
        The on-chain representation of the secret part ``t[S]``:
        ciphertext for encryption-based methods, a 32-byte salted hash
        for hash-based methods, or empty when there is no secret.
    salt:
        The public salt ``s`` for hash-based concealment (empty
        otherwise).
    creator:
        Identifier of the submitting user (public information).

    Immutability contract: the dataclass is frozen, and ``nonsecret``
    (a plain ``dict``, nested values included) must not be mutated in
    place once the transaction is constructed — :attr:`size_bytes` and
    :attr:`leaf_digest` are computed from the first encoding and never
    again.  Derive a changed transaction with
    :func:`dataclasses.replace`, which builds a new object that encodes
    itself afresh.  (``nonsecret`` stays a ``dict`` on purpose: the
    canonical encoder would stringify a read-only mapping proxy and
    change every byte.)
    """

    tid: str
    kind: str = "invoke"
    nonsecret: dict[str, Any] = field(default_factory=dict)
    concealed: bytes = b""
    salt: bytes = b""
    creator: str = ""

    def serialize(self) -> bytes:
        """Canonical byte encoding (stable across runs)."""
        body = {
            "tid": self.tid,
            "kind": self.kind,
            "nonsecret": self.nonsecret,
            "concealed": self.concealed.hex(),
            "salt": self.salt.hex(),
            "creator": self.creator,
        }
        raw = _canonical_json(body).encode("utf-8")
        if not hasattr(self, "_encoded"):
            # Frozen dataclass: derived values go in past ``__setattr__``
            # (as ``RSAPrivateKey._crt_cache`` does).  The bytes
            # themselves are not kept — a chain holds every transaction
            # for the whole run, and a size plus a 32-byte digest cost
            # far less memory.  One attribute, not two: CPython keeps
            # one extra attribute in the instance's inline slots, a
            # second would give every transaction a ``__dict__``.
            object.__setattr__(self, "_encoded", (len(raw), leaf_hash(raw)))
        return raw

    @classmethod
    def deserialize(cls, raw: bytes) -> "Transaction":
        """Inverse of :meth:`serialize`."""
        body = json.loads(raw.decode("utf-8"))
        return cls(
            tid=body["tid"],
            kind=body["kind"],
            nonsecret=body["nonsecret"],
            concealed=bytes.fromhex(body["concealed"]),
            salt=bytes.fromhex(body["salt"]),
            creator=body["creator"],
        )

    def digest(self) -> bytes:
        """SHA-256 over the canonical encoding."""
        return sha256(self.serialize())

    @property
    def size_bytes(self) -> int:
        """Serialized size — the unit of storage accounting and of the
        orderer's byte-based block cutting."""
        return self._encoding()[0]

    @property
    def leaf_digest(self) -> bytes:
        """``leaf_hash`` of the canonical encoding — this transaction's
        leaf in its block's Merkle tree."""
        return self._encoding()[1]

    def _encoding(self) -> tuple[int, bytes]:
        """``(size, leaf digest)``, encoding first if nothing has yet."""
        try:
            return self._encoded
        except AttributeError:
            self.serialize()
            return self._encoded
