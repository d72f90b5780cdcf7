"""The multi-chain deployment: main chain + one blockchain per view.

A :class:`CrossChainDeployment` owns a main Fabric network plus one
smaller network per view, all sharing one simulation environment.  A
request flows as:

1. the business transaction commits on the **main chain**,
2. :class:`~repro.sharding.crossshard.TwoPhaseCoordinator` runs the
   rest, the main chain coordinating: **Prepare** on every involved view
   chain in parallel (each carries the full payload — the duplication
   the paper measures in Fig 9), votes relayed onto the main chain,
   then **Commit** everywhere if all voted yes within the 2PC timeout
   (else aborts), and the decision.

So a request touching ``|V|`` views costs ``2·|V|`` view-chain
transactions plus coordinator records — the ``2·|V|·n`` growth of
Fig 6.  Aborted attempts are retried with backoff; under overload,
timeouts and retries amplify the load, which is the congestion-collapse
behaviour the paper reports past 48 clients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.fabric.config import NetworkConfig
from repro.fabric.endorser import Proposal
from repro.fabric.identity import User
from repro.fabric.network import FabricNetwork
from repro.sharding.crossshard import (
    CoordinatorContract,
    CoordinatorLog,
    CrossShardResult,
    CrossShardWrite,
    ShardContract,
    TwoPhaseCoordinator,
    assert_atomic,
    fresh_xid,
)
from repro.sim import Counter, Environment, TimeSeries
from repro.views.notary import NotaryContract
from repro.workload.contract import SupplyChainContract


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
    """Main chain plus one view blockchain per view.

    To its 2PC coordinator it is a deployment whose main chain
    coordinates, whose view chains are always reachable, which relays
    votes (AHL) and whose timeout and retry policy is the constructor's.
    """

    relays_votes = True

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
        self.main.participants.update(self.view_chains)

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
        event whose value is a :class:`CrossShardResult`.
        """
        return self.env.process(self._request_process(identities, request))

    def submit_request_sync(self, identities, request) -> CrossShardResult:
        """Submit and drive the simulation to completion."""
        return self.env.run(until=self.submit_request(identities, request))

    def _request_process(self, identities: dict[str, User], request):
        env = self.env
        started = env.now
        xid = fresh_xid()
        user = identities["main"]
        proposal = Proposal(
            chaincode="supply",
            fn=request.fn,
            args=request.args,
            public=dict(request.public),
            concealed=request.secret,
            creator=user.user_id,
        )
        yield self.main.submit(proposal)
        payload = {
            "tid": proposal.tid,
            "public": request.public,
            "concealed": request.secret.hex(),
        }
        writes = [
            CrossShardWrite(shard=view, lock_key=request.item, payload=payload)
            for view in request.access_list
            if view in self.view_chains
        ]
        result = yield from TwoPhaseCoordinator(self, user).drive(writes, xid)
        result.latency_ms = env.now - started
        self.metrics.crosschain_txs.increment(result.participant_txs)
        self.metrics.latencies_ms.record(env.now, result.latency_ms)
        return result

    # -- what the coordinator reads ---------------------------------------------

    def chain(self, key: str) -> FabricNetwork:
        return self.main if key == "main" else self.view_chains[key]

    def participant_name(self, view: str) -> str:
        return view

    def coordinator_shard_for(self, xid: str) -> str:
        return "main"

    def shard_reachable(self, key: str) -> bool:
        return True

    def count_cross_shard(self, event: str) -> None:
        """The coordinator's tally: ``metrics`` keeps the outcomes."""
        if event != "begun":
            getattr(self.metrics, event).increment()

    def coordinator_log(self) -> CoordinatorLog:
        return CoordinatorLog.on(self.main)

    # -- consistency checks -------------------------------------------------------

    def verify_atomicity(self, result: CrossShardResult, views: list[str]) -> None:
        """All-or-nothing for one request (its ``begin`` record names
        ``views``); raises :class:`~repro.errors.TwoPhaseCommitError`."""
        assert_atomic(self.main, result.xid)

    def total_storage_bytes(self) -> int:
        """Combined footprint of the main chain and every view chain."""
        total = self.main.total_storage_bytes()
        for chain in self.view_chains.values():
            total += chain.total_storage_bytes()
        return total
