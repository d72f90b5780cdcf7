"""The multi-chain deployment: main chain + one blockchain per view.

A :class:`CrossChainDeployment` owns a main Fabric network plus one
smaller network per view, all sharing one simulation environment.  A
request flows as:

1. the business transaction commits on the **main chain** (with a
   coordinator ``begin`` record),
2. **Prepare** transactions go to every involved view chain in
   parallel (each carries the full payload — the duplication the paper
   measures in Fig 9),
3. if all prepares vote yes within the 2PC timeout, **Commit**
   transactions go to every view chain in parallel (else aborts), and
   the coordinator records the decision.

So a request touching ``|V|`` views costs ``2·|V|`` view-chain
transactions plus coordinator records — the ``2·|V|·n`` growth of
Fig 6.  Aborted attempts are retried with backoff; under overload,
timeouts and retries amplify the load, which is the congestion-collapse
behaviour the paper reports past 48 clients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from repro.errors import TwoPhaseCommitError
from repro.fabric.config import NetworkConfig
from repro.fabric.endorser import Proposal
from repro.fabric.identity import User
from repro.fabric.network import FabricNetwork
from repro.fabric.peer import ValidationCode
from repro.sharding.crossshard import (
    COORDINATOR_CHAINCODE,
    SHARD_CHAINCODE,
    CoordinatorContract,
    ShardContract,
)
from repro.sim import Counter, Environment, TimeSeries
from repro.views.notary import NotaryContract
from repro.workload.contract import SupplyChainContract

_xid_counter = itertools.count(1)


@dataclass
class CrossChainResult:
    """Outcome of one cross-chain request."""

    xid: str
    committed: bool
    attempts: int
    latency_ms: float
    view_chain_txs: int


@dataclass
class BaselineMetrics:
    """What the baseline accumulates during a run."""

    committed: Counter
    aborted: Counter
    crosschain_txs: Counter
    latencies_ms: TimeSeries

    @classmethod
    def fresh(cls) -> "BaselineMetrics":
        return cls(
            committed=Counter("committed"),
            aborted=Counter("aborted"),
            crosschain_txs=Counter("crosschain"),
            latencies_ms=TimeSeries("latency_ms"),
        )


class CrossChainDeployment:
    """Main chain plus one view blockchain per view."""

    def __init__(
        self,
        env: Environment,
        view_names: list[str],
        config: NetworkConfig | None = None,
        prepare_timeout_ms: float = 15_000.0,
        max_retries: int = 2,
        retry_backoff_ms: float = 2_000.0,
    ):
        self.env = env
        self.config = config or NetworkConfig()
        self.prepare_timeout_ms = prepare_timeout_ms
        self.max_retries = max_retries
        self.retry_backoff_ms = retry_backoff_ms
        self.metrics = BaselineMetrics.fresh()

        self.main = FabricNetwork(env, self.config, chain_name="main")
        self.main.install_chaincode(SupplyChainContract())
        self.main.install_chaincode(NotaryContract())
        self.main.install_chaincode(CoordinatorContract())

        # View chains are lighter deployments: a single peer each, which
        # is also the only endorser their policy can ask for.
        view_config = replace(self.config, peer_count=1, endorsement_policy=1)
        self.view_chains: dict[str, FabricNetwork] = {}
        for name in view_names:
            chain = FabricNetwork(env, view_config, chain_name=f"view-{name}")
            chain.install_chaincode(ShardContract())
            self.view_chains[name] = chain

    # -- identities -------------------------------------------------------------

    def register_user(self, user_id: str) -> dict[str, User]:
        """Register one client on the main chain and every view chain.

        Each network has its own MSP (they are separate blockchains), so
        the client holds one identity per chain.
        """
        identities = {"main": self.main.register_user(user_id)}
        for name, chain in self.view_chains.items():
            identities[name] = chain.register_user(user_id)
        return identities

    # -- request path ---------------------------------------------------------------

    def submit_request(self, identities: dict[str, User], request) -> "object":
        """Run one cross-chain request as a simulation process.

        ``request`` is a :class:`~repro.workload.generator.TransferRequest`;
        the involved views are its access list.  Returns the process
        event whose value is a :class:`CrossChainResult`.
        """
        return self.env.process(self._request_process(identities, request))

    def submit_request_sync(self, identities, request) -> CrossChainResult:
        """Submit and drive the simulation to completion."""
        return self.env.run(until=self.submit_request(identities, request))

    def _request_process(self, identities: dict[str, User], request):
        env = self.env
        started = env.now
        views = [v for v in request.access_list if v in self.view_chains]
        xid = f"xid-{next(_xid_counter):08d}"
        view_chain_txs = 0

        # Step 1: business transaction + coordinator begin on main chain.
        main_user = identities["main"]
        main_proposal = Proposal(
            chaincode="supply",
            fn=request.fn,
            args=request.args,
            public=dict(request.public),
            concealed=request.secret,
            creator=main_user.user_id,
        )
        yield self.main.submit(main_proposal)
        begin = Proposal(
            chaincode=COORDINATOR_CHAINCODE,
            fn="begin",
            args={"xid": xid, "views": views},
            creator=main_user.user_id,
            contract_write=True,
        )
        yield self.main.submit(begin)

        payload = {
            "tid": main_proposal.tid,
            "public": request.public,
            "concealed": request.secret.hex(),
        }

        committed = False
        attempts = 0
        while attempts <= self.max_retries and not committed:
            attempts += 1
            # Step 2: Prepare on every involved view chain, in parallel.
            prepare_started = env.now
            prepare_events = []
            for view in views:
                proposal = Proposal(
                    chaincode=SHARD_CHAINCODE,
                    fn="prepare",
                    args={
                        "xid": xid,
                        "lock_key": request.item,
                        "payload": payload,
                    },
                    creator=identities[view].user_id,
                    contract_write=True,
                )
                prepare_events.append(self.view_chains[view].submit(proposal))
            notices = yield env.all_of(prepare_events)
            view_chain_txs += len(views)
            elapsed = env.now - prepare_started
            all_prepared = all(
                n.code is ValidationCode.VALID
                and isinstance(n.response, dict)
                and n.response.get("prepared")
                for n in notices
            )
            # Relay every shard's vote onto the coordinator chain (AHL
            # processes votes as transactions of the coordinating
            # committee) — |V| extra main-chain transactions per attempt.
            vote_events = []
            for view, notice in zip(views, notices):
                prepared = (
                    notice.code is ValidationCode.VALID
                    and isinstance(notice.response, dict)
                    and bool(notice.response.get("prepared"))
                )
                vote_events.append(
                    self.main.submit(
                        Proposal(
                            chaincode=COORDINATOR_CHAINCODE,
                            fn="record_vote",
                            args={"xid": xid, "view": view, "prepared": prepared},
                            creator=main_user.user_id,
                            contract_write=True,
                        )
                    )
                )
            if vote_events:
                yield env.all_of(vote_events)
            if all_prepared and elapsed <= self.prepare_timeout_ms:
                # Step 3: Commit everywhere.
                commit_events = []
                for view in views:
                    proposal = Proposal(
                        chaincode=SHARD_CHAINCODE,
                        fn="commit",
                        args={"xid": xid},
                        creator=identities[view].user_id,
                        contract_write=True,
                    )
                    commit_events.append(self.view_chains[view].submit(proposal))
                yield env.all_of(commit_events)
                view_chain_txs += len(views)
                committed = True
                break
            # Abort everywhere (releases any locks we did take) and retry.
            abort_events = []
            for view in views:
                proposal = Proposal(
                    chaincode=SHARD_CHAINCODE,
                    fn="abort",
                    args={"xid": xid},
                    creator=identities[view].user_id,
                    contract_write=True,
                )
                abort_events.append(self.view_chains[view].submit(proposal))
            yield env.all_of(abort_events)
            view_chain_txs += len(views)
            if attempts <= self.max_retries:
                yield env.timeout(self.retry_backoff_ms * attempts)

        decide = Proposal(
            chaincode=COORDINATOR_CHAINCODE,
            fn="decide",
            args={"xid": xid, "outcome": "committed" if committed else "aborted"},
            creator=main_user.user_id,
            contract_write=True,
        )
        yield self.main.submit(decide)

        latency = env.now - started
        self.metrics.crosschain_txs.increment(view_chain_txs)
        self.metrics.latencies_ms.record(env.now, latency)
        if committed:
            self.metrics.committed.increment()
        else:
            self.metrics.aborted.increment()
        return CrossChainResult(
            xid=xid,
            committed=committed,
            attempts=attempts,
            latency_ms=latency,
            view_chain_txs=view_chain_txs,
        )

    # -- consistency checks (used by tests) -----------------------------------------

    def record_on_view_chain(self, view: str, xid: str) -> dict | None:
        """Fetch a committed record from one view chain."""
        return self.view_chains[view].query(
            SHARD_CHAINCODE, "get_record", {"xid": xid}
        )

    def verify_atomicity(self, result: CrossChainResult, views: list[str]) -> None:
        """All-or-nothing check: the record exists on all chains or none.

        Raises
        ------
        TwoPhaseCommitError
            If some view chains hold the record and others do not.
        """
        present = [
            view
            for view in views
            if self.record_on_view_chain(view, result.xid) is not None
        ]
        if result.committed and len(present) != len(views):
            missing = sorted(set(views) - set(present))
            raise TwoPhaseCommitError(
                f"{result.xid}: committed but missing on view chains {missing}"
            )
        if not result.committed and present:
            raise TwoPhaseCommitError(
                f"{result.xid}: aborted but present on view chains {present}"
            )

    def total_storage_bytes(self) -> int:
        """Combined footprint of the main chain and every view chain."""
        total = self.main.total_storage_bytes()
        for chain in self.view_chains.values():
            total += chain.total_storage_bytes()
        return total
