"""Skewed-contention workload for the commit-backend benchmarks.

The supply-chain trace is deliberately conflict-light (each item walks
its own keys), which makes it useless for measuring MVCC abort
behaviour.  This module generates the opposite: a stream of
read-modify-write *bumps* against a small set of hot counters drawn
from a Zipf distribution, with a tunable fraction of uncontended cold
traffic mixed in.  Under the reference commit backend a block of
concurrent bumps to one hot key commits exactly one winner; under the
occ backend the losers rebase and goodput approaches the offered load
— the contrast `benchmarks/test_contention_microbench.py` measures.

Everything is seeded: the same (keys, skew, conflict_rate, seed)
tuple yields the same request stream on every run.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.fabric.chaincode import Chaincode, TxContext

COUNTER_CHAINCODE = "counter"


class ZipfSampler:
    """Draws ranks 1..n with probability proportional to ``1/rank**s``.

    ``s = 0`` is uniform; ``s = 1.2`` (the benchmark's default skew)
    concentrates ~45 % of the mass on the top two of eight ranks.
    Sampling is inverse-CDF over the precomputed cumulative weights, so
    a draw costs one ``random()`` plus a binary search.
    """

    def __init__(self, n: int, s: float, seed: int = 7):
        if n < 1:
            raise WorkloadError(f"zipf sampler needs n >= 1, got {n}")
        if s < 0:
            raise WorkloadError(f"zipf skew must be >= 0, got {s}")
        self.n = n
        self.s = s
        self._rng = random.Random(seed)
        weights = [1.0 / (rank**s) for rank in range(1, n + 1)]
        total = sum(weights)
        self._cumulative: list[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)
        self._cumulative[-1] = 1.0  # guard against float drift

    def sample(self) -> int:
        """One rank in ``1..n`` (1 is the hottest)."""
        return bisect_right(self._cumulative, self._rng.random()) + 1


class CounterContract(Chaincode):
    """Hot-key counters: the minimal read-modify-write chaincode.

    ``bump`` reads the counter, adds ``amount``, and writes it back —
    the textbook MVCC-conflict shape.  The response keeps a *stable
    dict shape* (same keys whatever the prior value), so an occ rebase
    that lands on a different running total still passes the
    business-outcome check and commits; contrast the supply-chain
    transfer, whose re-execution raises once the holder moved.
    """

    name = COUNTER_CHAINCODE

    def fn_bump(self, ctx: TxContext, key: str, amount: int = 1) -> dict:
        current = ctx.get_state(key) or 0
        updated = current + amount
        ctx.put_state(key, updated)
        return {"key": key, "count": updated}

    def fn_get(self, ctx: TxContext, key: str) -> int:
        return ctx.get_state(key) or 0


@dataclass(frozen=True)
class BumpRequest:
    """One counter bump in the contention trace."""

    index: int
    key: str
    amount: int
    #: True when the key was drawn from the hot set (for reporting).
    hot: bool
    #: Home shard of the request's key (always 0 in unsharded traces).
    shard: int = 0
    #: Partner writes of a cross-shard request: ``(shard, lock_key)``
    #: pairs beyond the home shard.  Empty for shard-local requests.
    partners: tuple[tuple[int, str], ...] = ()

    @property
    def args(self) -> dict:
        return {"key": self.key, "amount": self.amount}

    @property
    def cross_shard(self) -> bool:
        return bool(self.partners)


@dataclass
class ContentionWorkload:
    """Seeded stream of counter bumps with zipf-skewed hot keys.

    Each request targets a hot key (``hot-00`` … drawn by rank from
    :class:`ZipfSampler`) with probability ``conflict_rate``, and a
    request-unique cold key otherwise.  Two concurrent requests can
    only conflict on hot keys, so ``conflict_rate`` upper-bounds the
    per-request conflict probability and ``skew`` shapes how the hot
    traffic piles onto the hottest ranks.

    **Sharded traces**: with ``shards > 1``, each request is pinned to
    a home shard round-robin (exact balance at any trace length) and
    its keys are namespaced per shard (``hot-s2-00`` …) — every shard
    gets its own hot set with the same skew, so contention is
    shard-local and the occ rebase path multiplies per shard instead of
    serialising globally.  A ``cross_shard_fraction`` of the requests
    additionally carries partner lock keys on one other shard (drawn
    from that shard's own hot/cold population), marking them for the
    2PC path; the local-vs-distributed mix is what the sharding bench
    sweeps.  A one-shard trace consumes exactly the same RNG stream as
    the pre-sharding generator, so existing benchmarks are unchanged.
    """

    requests: int = 64
    hot_keys: int = 8
    skew: float = 1.2
    conflict_rate: float = 1.0
    seed: int = 7
    shards: int = 1
    cross_shard_fraction: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.conflict_rate <= 1.0:
            raise WorkloadError(
                f"conflict_rate must be in [0, 1], got {self.conflict_rate}"
            )
        if not 0.0 <= self.cross_shard_fraction <= 1.0:
            raise WorkloadError(
                f"cross_shard_fraction must be in [0, 1], "
                f"got {self.cross_shard_fraction}"
            )
        if self.requests < 0:
            raise WorkloadError(f"requests must be >= 0, got {self.requests}")
        if self.shards < 1:
            raise WorkloadError(f"shards must be >= 1, got {self.shards}")
        if self.shards == 1 and self.cross_shard_fraction > 0:
            raise WorkloadError(
                "cross_shard_fraction needs shards > 1 to mean anything"
            )

    def _key(self, shard: int, hot: bool, rank: int, index: int) -> str:
        """Per-shard key namespace; unsharded names match the original
        generator byte for byte."""
        prefix = "" if self.shards == 1 else f"s{shard}-"
        if hot:
            return f"hot-{prefix}{rank - 1:02d}"
        return f"cold-{prefix}{index:05d}"

    def generate(self) -> list[BumpRequest]:
        """The full trace (deterministic per seed)."""
        rng = random.Random(self.seed)
        samplers = [
            ZipfSampler(self.hot_keys, self.skew, seed=self.seed + 1 + shard)
            for shard in range(self.shards)
        ]
        cross_rng = random.Random(self.seed + 101)
        trace: list[BumpRequest] = []
        for index in range(self.requests):
            shard = index % self.shards
            hot = rng.random() < self.conflict_rate
            rank = samplers[shard].sample() if hot else 0
            key = self._key(shard, hot, rank, index)
            partners: tuple[tuple[int, str], ...] = ()
            if (
                self.shards > 1
                and cross_rng.random() < self.cross_shard_fraction
            ):
                partner = cross_rng.randrange(self.shards - 1)
                if partner >= shard:
                    partner += 1
                partner_hot = cross_rng.random() < self.conflict_rate
                partner_rank = (
                    samplers[partner].sample() if partner_hot else 0
                )
                partners = (
                    (
                        partner,
                        self._key(partner, partner_hot, partner_rank, index),
                    ),
                )
            trace.append(
                BumpRequest(
                    index=index,
                    key=key,
                    amount=rng.randint(1, 5),
                    hot=hot,
                    shard=shard,
                    partners=partners,
                )
            )
        return trace

    def per_shard(self, trace: list[BumpRequest]) -> list[list[BumpRequest]]:
        """Split a trace by home shard (order preserved within each)."""
        buckets: list[list[BumpRequest]] = [[] for _ in range(self.shards)]
        for request in trace:
            buckets[request.shard].append(request)
        return buckets

    @staticmethod
    def expected_totals(trace: list[BumpRequest]) -> dict[str, int]:
        """Final counter values if every bump commits exactly once.

        Cross-shard requests are excluded: they run through the 2PC
        record-materialisation path, not the counter contract.
        """
        totals: dict[str, int] = {}
        for request in trace:
            if request.cross_shard:
                continue
            totals[request.key] = totals.get(request.key, 0) + request.amount
        return totals
