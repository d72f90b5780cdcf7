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

It is a :class:`~repro.sharding.network.MultiChainDeployment`, as the
sharded path is: its chains, coordinating chain and policy are its own.
"""

from __future__ import annotations

from dataclasses import replace

from repro.fabric.config import NetworkConfig
from repro.fabric.endorser import Proposal
from repro.fabric.identity import User
from repro.fabric.network import FabricNetwork
from repro.sharding.crossshard import (
    CoordinatorContract,
    CrossShardResult,
    CrossShardWrite,
    ShardContract,
    TwoPhaseCoordinator,
    fresh_xid,
)
from repro.sharding.network import MultiChainDeployment
from repro.sim import Environment
from repro.views.notary import NotaryContract
from repro.workload.contract import SupplyChainContract


class CrossChainDeployment(MultiChainDeployment):
    """Main chain plus one view blockchain per view.

    The main chain coordinates, votes are relayed (AHL), and the
    timeout and retry policy is the constructor's.
    """

    def __init__(
        self,
        env: Environment,
        view_names: list[str],
        config: NetworkConfig | None = None,
        prepare_timeout_ms: float = 15_000.0,
        max_retries: int = 2,
        retry_backoff_ms: float = 2_000.0,
    ):
        config = config or NetworkConfig()
        self.main = FabricNetwork(env, config, chain_name="main")
        self.main.install_chaincode(SupplyChainContract())
        self.main.install_chaincode(NotaryContract())
        self.main.install_chaincode(CoordinatorContract())

        # View chains are lighter deployments: a single peer each, which
        # is also the only endorser their policy can ask for.
        view_config = replace(config, peer_count=1, endorsement_policy=1)
        self.view_chains: dict[str, FabricNetwork] = {}
        for name in view_names:
            chain = FabricNetwork(env, view_config, chain_name=f"view-{name}")
            chain.install_chaincode(ShardContract())
            self.view_chains[name] = chain
        super().__init__(
            env, config, {"main": self.main, **self.view_chains},
            {name: name for name in self.view_chains}, lambda xid: "main", ["main"],
            relays_votes=True, prepare_timeout_ms=prepare_timeout_ms,
            max_retries=max_retries, retry_backoff_ms=retry_backoff_ms,
        )

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
