"""The two seams of ``FabricNetwork``: its consensus object and its link.

A seam is real if something else can stand in it: a hand-written
consensus orders blocks end to end, a default network runs without the
fault layer or either consensus protocol ever being imported, and the
exactly-once guard at the orderer pump holds with nothing attached.
"""

from __future__ import annotations

from dataclasses import replace

from repro import build_network
from repro.fabric.endorser import Proposal


class FakeConsensus:
    """Agrees on anything after 3 ms and remembers what it was asked."""

    kind = "fake"

    def __init__(self, env):
        self.env = env
        self.batches = []

    def replicate(self, tids):
        self.batches.append(list(tids))
        return self.env.timeout(3.0)


def test_a_hand_written_consensus_orders_blocks_end_to_end(fast_config):
    network = build_network(fast_config)
    fake = network.consensus = FakeConsensus(network.env)
    user = network.register_user("alice")
    notices = [
        network.invoke_sync(
            user, "supply", "create_item", {"item": f"i{i}", "owner": "W1"}
        )
        for i in range(3)
    ]
    assert [notice.code.value for notice in notices] == ["valid"] * 3
    assert fake.batches == [
        [tx.tid for tx in block.transactions] for block in network.block_log
    ]
    assert len(network.block_log) == network.reference_peer.chain.height == 3
    network.verify_convergence()
    # The read-only views answer for an implementation they never met.
    assert network.raft is None and network.pbft is None
    assert network.block_certs == []


DEFAULT_NETWORK_SCRIPT = """
import sys

from repro import build_network
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.network import Gateway
from repro.views.hash_based import HashBasedManager
from repro.views.manager import ViewReader
from repro.views.predicates import AttributeEquals
from repro.views.types import ViewMode

network = build_network(
    NetworkConfig(
        latency=SINGLE_REGION, real_signatures=False, batch_timeout_ms=20.0
    )
)
manager = HashBasedManager(Gateway(network, network.register_user("owner")))
manager.create_view("w1", AttributeEquals("to", "W1"), ViewMode.REVOCABLE)
for i in range(3):
    manager.invoke_with_secret(
        "create_item",
        {"item": f"i{i}", "owner": "W1"},
        {"item": f"i{i}", "from": None, "to": "W1"},
        f"manifest-{i}".encode(),
    )
bob = network.register_user("bob")
manager.grant_access("w1", "bob")
served = ViewReader(bob, Gateway(network, bob)).read_view(manager, "w1")
assert sorted(served.secrets.values()) == [b"manifest-0", b"manifest-1", b"manifest-2"]
network.verify_convergence()

# Client MVCC retry is fault-free machinery too: two bumps of one key
# endorse against the same version, the loser really conflicts and is
# re-endorsed under a fresh tid after its seeded backoff.
from repro.workload.zipf import COUNTER_CHAINCODE, CounterContract

retrying = build_network(
    NetworkConfig(
        latency=SINGLE_REGION,
        real_signatures=False,
        batch_timeout_ms=20.0,
        commit_backend="reference",
        mvcc_retry_attempts=2,
    )
)
retrying.install_chaincode(CounterContract())
client = Gateway(retrying, retrying.register_user("client"))
events = [
    client.submit_async(COUNTER_CHAINCODE, "bump", {"key": "hot", "amount": 1})
    for _ in range(2)
]
notices = retrying.env.run(until=retrying.env.all_of(events))
assert [notice.code.value for notice in notices] == ["valid", "valid"]
assert retrying.mvcc_retries == 1
assert retrying.metrics.invalid_txs.value == 1
assert retrying.query(COUNTER_CHAINCODE, "get", {"key": "hot"}) == 2

unwanted = ("repro.faults", "repro.fabric.raft", "repro.fabric.pbft")
print(sorted(name for name in sys.modules if name.startswith(unwanted)))
"""


def test_a_default_network_imports_no_fault_or_consensus_protocol_code(
    fresh_interpreter,
):
    assert fresh_interpreter(DEFAULT_NETWORK_SCRIPT) == "[]"


def test_a_resubmitted_tid_commits_once_with_nothing_attached(fast_config):
    """Exactly-once must not depend on an attachment: with no injector
    the second copy of a tid used to reach the committer and kill the
    simulation (duplicate transaction id in one block)."""
    network = build_network(replace(fast_config, fault_plan="off"))
    assert network.faults is None
    user = network.register_user("alice")
    proposal = Proposal(
        chaincode="notary",
        fn="record",
        public={"note": "dup"},
        creator=user.user_id,
        tid="tx-dup",
    )
    network.submit(proposal)
    network.submit(proposal)
    network.env.run(until=500.0)
    assert network.deduped_txs == 1
    chain = network.reference_peer.chain
    assert [tx.tid for block in chain for tx in block.transactions] == ["tx-dup"]
    assert network.queue_depth() == 0
    network.verify_convergence()
    # ... and a copy arriving after the commit is dropped as well.
    network.submit(proposal)
    network.env.run(until=1_000.0)
    assert network.deduped_txs == 2 and chain.height == 1
