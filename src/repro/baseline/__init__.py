"""Cross-chain 2PC baseline (paper §6.1).

The comparison system: every view lives on its own *view blockchain*,
accessible only to that view's users, and a two-phase-commit protocol
(in the style of AHL) keeps the view chains consistent with the main
chain.  A request whose transaction belongs to ``|V|`` views costs
``2·|V|`` view-chain transactions (Prepare + Commit on each), which is
what makes the baseline lose to LedgerView on throughput, latency, and
storage across the paper's experiments.

The 2PC chaincodes (:class:`CoordinatorContract` on the main chain,
:class:`ShardContract` on every view chain) and the loop that drives
them are :mod:`repro.sharding.crossshard`'s: the baseline and the
sharded deployment are one deployment class run by one coordinator, and
the baseline supplies only its data (the main chain coordinates, votes
are relayed, attempts time out and retry).
"""

from repro.baseline.multichain import CrossChainDeployment
from repro.sharding.crossshard import CoordinatorContract, ShardContract

__all__ = [
    "CrossChainDeployment",
    "CoordinatorContract",
    "ShardContract",
]
