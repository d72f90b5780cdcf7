"""Proposals, endorsements, and transaction assembly.

The endorsement phase of Fabric's execute-order-validate flow: a client
sends a *proposal* to one or more endorsing peers; each peer simulates
the chaincode against its committed state and returns a signed
*proposal response* carrying the read/write sets.  The client assembles
the responses into the final transaction that goes to the ordering
service (paper §5.1).

Read/write sets are embedded in the transaction's non-secret part in a
JSON-safe encoding, mirroring how Fabric blocks physically contain
rwsets — which also makes the byte-accounting for storage experiments
faithful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.hashing import hmac_sha256, sha256
from repro.errors import EndorsementError
from repro.ledger.statedb import Version
from repro.ledger.transaction import Transaction, fresh_tid

# --- JSON-safe value codec ----------------------------------------------


def encode_value(value: Any) -> Any:
    """Encode a state value into JSON-safe form (bytes become tagged hex)."""
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    if isinstance(value, dict):
        return {k: encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        if set(value) == {"__bytes__"}:
            return bytes.fromhex(value["__bytes__"])
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


# --- proposals and responses ----------------------------------------------


@dataclass(frozen=True)
class Proposal:
    """A client's request to invoke a chaincode function.

    ``public`` is the transaction's non-secret part ``t[N]`` (view
    predicates are evaluated over it); ``concealed``/``salt`` carry the
    processed secret part produced by a view manager.
    """

    chaincode: str
    fn: str
    args: dict[str, Any] = field(default_factory=dict)
    public: dict[str, Any] = field(default_factory=dict)
    concealed: bytes = b""
    salt: bytes = b""
    creator: str = ""
    tid: str = field(default_factory=fresh_tid)
    #: Transaction kind recorded on chain ("invoke", "view-access",
    #: "view-merge", "txlist-flush", ...) — lets ledger scans and
    #: view-definition evaluation distinguish application transactions
    #: from bookkeeping ones.
    kind: str = "invoke"
    #: Marks transactions whose writes update contract-state maps
    #: (ViewStorage merges) — they cost more to validate (see
    #: NetworkConfig.contract_write_factor).
    contract_write: bool = False

    def signing_payload(self, read_set: dict, write_set: dict) -> bytes:
        """The bytes an endorser signs: tid + rwset digest."""
        body = json.dumps(
            [self.tid, sorted(read_set.items()), sorted(write_set.items())],
            sort_keys=True,
            default=str,
        ).encode()
        return sha256(body)


@dataclass(frozen=True)
class ProposalResponse:
    """One endorser's simulated execution result."""

    peer_id: str
    read_set: dict[str, Version | None]
    write_set: dict[str, Any]
    response: Any
    signature: bytes

    def rwset_equal(self, other: "ProposalResponse") -> bool:
        """Endorsements must agree on effects to be combinable."""
        return (
            self.read_set == other.read_set and self.write_set == other.write_set
        )


def simulated_signature(peer_secret: bytes, payload: bytes) -> bytes:
    """Cheap keyed-MAC stand-in for an RSA endorsement signature.

    Used when ``NetworkConfig.real_signatures`` is off: the message flow
    and verification step are identical, only the primitive is swapped
    so pure-Python RSA does not dominate benchmark wall-clock time.
    """
    return hmac_sha256(peer_secret, payload)


def assemble_transaction(
    proposal: Proposal,
    responses: list[ProposalResponse],
) -> Transaction:
    """Build the final transaction from matching proposal responses.

    Raises
    ------
    EndorsementError
        If there are no responses or the endorsers disagree on effects.
    """
    if not responses:
        raise EndorsementError(f"proposal {proposal.tid}: no endorsements")
    first = responses[0]
    for other in responses[1:]:
        if not first.rwset_equal(other):
            raise EndorsementError(
                f"proposal {proposal.tid}: endorsers disagree on read/write sets"
            )
    reads = [
        [key, [version.block, version.position] if version else None]
        for key, version in sorted(first.read_set.items())
    ]
    writes = [
        [key, encode_value(value)] for key, value in sorted(first.write_set.items())
    ]
    nonsecret = {
        "cc": proposal.chaincode,
        "fn": proposal.fn,
        "public": proposal.public,
        "rwset": {"reads": reads, "writes": writes},
        "endorsements": [[r.peer_id, r.signature.hex()] for r in responses],
        "contract_write": proposal.contract_write,
    }
    return Transaction(
        tid=proposal.tid,
        kind=proposal.kind,
        nonsecret=nonsecret,
        concealed=proposal.concealed,
        salt=proposal.salt,
        creator=proposal.creator,
    )


def parse_rwset(tx: Transaction) -> tuple[dict[str, Version | None], dict[str, Any]]:
    """Recover the read/write sets embedded in a committed transaction."""
    rwset = tx.nonsecret.get("rwset", {"reads": [], "writes": []})
    read_set: dict[str, Version | None] = {}
    for key, version in rwset["reads"]:
        read_set[key] = Version(*version) if version is not None else None
    write_set = {key: decode_value(value) for key, value in rwset["writes"]}
    return read_set, write_set
