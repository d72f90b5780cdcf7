"""Workload generation: item flows and the transfer-request stream.

For each dispatched item the generator performs a seeded random walk
from a dispatching node to a terminal node and emits one request per
hop (plus one creation request).  Each request carries:

- **public part** ``t[N]``: item id, from, to, and the *access list* —
  every node that has handled the item so far, including the receiver.
  Per §6.2, "all the nodes that handled it can see the transfer
  transaction", and the per-node view predicates match on this list.
- **secret part** ``t[S]``: the confidential shipment details (item
  type, amount, price — §3.1's example).
- **history grants**: indices of the item's earlier requests, which the
  receiving node gains access to ("nodes can also see all the
  historical transfers of the items they received").

Requests reference each other by *index* because transaction ids are
only minted at submission time; the harness maps indices to tids.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.workload.topology import NodeKind, SupplyChainTopology

ITEM_TYPES = ["phone", "tablet", "battery", "screen", "camera", "chassis"]


@dataclass(frozen=True)
class TransferRequest:
    """One application request in the workload trace.

    ``history`` holds indices (into the trace) of the item's earlier
    requests; on submission the harness grants the receiving node's
    view access to those transactions.
    """

    index: int
    fn: str  # "create_item" | "transfer"
    item: str
    sender: str | None
    receiver: str
    args: dict = field(default_factory=dict)
    public: dict = field(default_factory=dict)
    secret: bytes = b""
    history: tuple[int, ...] = ()

    @property
    def access_list(self) -> list[str]:
        """Nodes with access to this transfer (from the public part)."""
        return list(self.public.get("access", []))


class SupplyChainWorkload:
    """Seeded generator of supply-chain request traces."""

    def __init__(
        self,
        topology: SupplyChainTopology,
        items: int = 10,
        seed: int = 7,
        include_creations: bool = True,
        secret_size: int = 0,
        item_prefix: str = "",
    ):
        topology.validate()
        self.topology = topology
        self.items = items
        self.seed = seed
        self.include_creations = include_creations
        #: When positive, pad secrets to roughly this many bytes (for
        #: storage experiments over different secret sizes).
        self.secret_size = secret_size
        #: Distinguishes item namespaces when several generators feed
        #: one ledger (e.g. one trace per simulated client).
        self.item_prefix = item_prefix

    def generate(self) -> list[TransferRequest]:
        """Produce the full request trace (deterministic per seed)."""
        rng = random.Random(self.seed)
        dispatchers = self.topology.dispatching_nodes
        requests: list[TransferRequest] = []
        for item_number in range(self.items):
            origin = dispatchers[item_number % len(dispatchers)]
            item = (
                f"item-{self.item_prefix}{self.topology.name}-{item_number:05d}"
            )
            requests.extend(self._item_flow(rng, item, origin, requests))
        return requests

    def generate_interleaved(self) -> list[TransferRequest]:
        """The trace reordered so consecutive requests touch different
        items: round 0 holds every item's first request, round 1 every
        item's second, and so on.  A client submitting batches of
        concurrent requests then never races two hops of the same item
        (which would otherwise trip the holder check or MVCC).
        History indices still refer to positions in this reordered list.
        """
        by_item: dict[str, list[TransferRequest]] = {}
        for request in self.generate():
            by_item.setdefault(request.item, []).append(request)
        rounds: list[TransferRequest] = []
        level = 0
        remaining = True
        while remaining:
            remaining = False
            for flows in by_item.values():
                if level < len(flows):
                    rounds.append(flows[level])
                    remaining = level + 1 < max(len(f) for f in by_item.values())
            level += 1
            remaining = any(level < len(f) for f in by_item.values())
        # Re-index and remap history references to the new positions.
        old_to_new = {request.index: i for i, request in enumerate(rounds)}
        reindexed = []
        for i, request in enumerate(rounds):
            reindexed.append(
                TransferRequest(
                    index=i,
                    fn=request.fn,
                    item=request.item,
                    sender=request.sender,
                    receiver=request.receiver,
                    args=request.args,
                    public=request.public,
                    secret=request.secret,
                    history=tuple(old_to_new[h] for h in request.history),
                )
            )
        return reindexed

    def _item_flow(
        self,
        rng: random.Random,
        item: str,
        origin: str,
        requests_so_far: list[TransferRequest],
    ) -> list[TransferRequest]:
        """Creation plus the hop-by-hop walk of one item."""
        flow: list[TransferRequest] = []
        next_index = len(requests_so_far)
        handlers = [origin]
        item_indices: list[int] = []

        if self.include_creations:
            creation = TransferRequest(
                index=next_index,
                fn="create_item",
                item=item,
                sender=None,
                receiver=origin,
                args={"item": item, "owner": origin},
                public={
                    "item": item,
                    "from": None,
                    "to": origin,
                    "access": list(handlers),
                },
                secret=self._secret(rng, item, 0),
            )
            flow.append(creation)
            item_indices.append(next_index)
            next_index += 1

        current = origin
        hop = 0
        while self.topology.kind_of(current) is not NodeKind.TERMINAL:
            successors = self.topology.successors(current)
            if not successors:
                raise WorkloadError(
                    f"node {current!r} is a dead end for item {item!r}"
                )
            target = rng.choice(successors)
            hop += 1
            handlers.append(target)
            request = TransferRequest(
                index=next_index,
                fn="transfer",
                item=item,
                sender=current,
                receiver=target,
                args={"item": item, "sender": current, "receiver": target},
                public={
                    "item": item,
                    "from": current,
                    "to": target,
                    "access": list(handlers),
                },
                secret=self._secret(rng, item, hop),
                history=tuple(item_indices),
            )
            flow.append(request)
            item_indices.append(next_index)
            next_index += 1
            current = target
        return flow

    def _secret(self, rng: random.Random, item: str, hop: int) -> bytes:
        """Confidential shipment details (type, amount, price — §3.1)."""
        details = {
            "item": item,
            "hop": hop,
            "type": rng.choice(ITEM_TYPES),
            "amount": rng.randint(1, 500),
            "price_cents": rng.randint(100, 250_000),
        }
        body = json.dumps(details).encode()
        if self.secret_size > len(body):
            details["padding"] = "x" * (self.secret_size - len(body))
            body = json.dumps(details).encode()
        return body
