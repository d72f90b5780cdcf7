"""Unmaintained views: evaluate the view query on demand (paper §3).

The paper distinguishes *maintained* views (the query answer is stored
and updated — what :class:`ViewManager` implements) from *unmaintained*
views, where "the view query is executed when the view is invoked".
An unmaintained view needs no owner-side bookkeeping per transaction;
it trades query latency for zero maintenance cost, and is the natural
fit for ad-hoc audits and for datalog lineage queries whose results
change as items keep moving.

:class:`UnmaintainedView` evaluates a predicate (or a recursive
:class:`~repro.views.datalog.DatalogViewQuery`) over the ledger at
invocation time, optionally bounded by a time horizon, and can compare
itself against a maintained view — which is exactly the ledger-scan
completeness test of §4.7 from the other direction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fabric.network import FabricNetwork
from repro.ledger.transaction import Transaction
from repro.views.datalog import DatalogViewQuery
from repro.views.predicates import Everything, Predicate
from repro.views.verification import view_fold


@dataclass(frozen=True)
class UnmaintainedResult:
    """Result of evaluating an unmaintained view."""

    view: str
    tids: tuple[str, ...]
    evaluated_at: float
    transactions_scanned: int

    def __contains__(self, tid: str) -> bool:
        return tid in set(self.tids)

    def __len__(self) -> int:
        return len(self.tids)


class UnmaintainedView:
    """A view computed from the ledger at invocation time.

    Parameters
    ----------
    name:
        View name (for reports).
    definition:
        Either a per-transaction :class:`Predicate` over ``t[N]`` or a
        :class:`DatalogViewQuery` for recursive, lineage-style
        definitions.
    """

    def __init__(self, name: str, definition: Predicate | DatalogViewQuery):
        self.name = name
        self.definition = definition

    def evaluate(
        self, network: FabricNetwork, upto_time: float | None = None
    ) -> UnmaintainedResult:
        """Run the view query against the ledger as of ``upto_time``.

        The candidates are the VALID ``invoke`` transactions of
        :func:`~repro.views.verification.view_fold`; a rejected
        transaction is in no view, maintained or not.
        """
        datalog = isinstance(self.definition, DatalogViewQuery)
        candidates: list[Transaction] = []
        ordered: list[str] = []
        for _block, valid, tids in view_fold(
            network.reference_peer,
            Everything() if datalog else self.definition,
            upto_time=upto_time,
        ):
            candidates.extend(valid)
            ordered.extend(tids)
        if datalog:
            chosen = self.definition.evaluate(candidates)
            ordered = [tx.tid for tx in candidates if tx.tid in chosen]
        return UnmaintainedResult(
            view=self.name,
            tids=tuple(ordered),
            evaluated_at=network.env.now if upto_time is None else upto_time,
            transactions_scanned=len(candidates),
        )

    def diff_against_maintained(
        self,
        network: FabricNetwork,
        maintained_tids: set[str],
        upto_time: float | None = None,
    ) -> tuple[set[str], set[str]]:
        """Compare with a maintained view's contents.

        Returns ``(missing, extra)``: transactions the maintained view
        should contain but does not, and vice versa.  Both empty means
        the maintained view is sound and complete w.r.t. this
        definition at the given time.
        """
        fresh = set(self.evaluate(network, upto_time).tids)
        return fresh - maintained_tids, maintained_tids - fresh
