"""Integration tests for the simulated Fabric network."""

import pytest

from repro import build_network
from repro.errors import ChaincodeError, LedgerError
from repro.fabric.config import MULTI_REGION, SINGLE_REGION, NetworkConfig
from repro.fabric.endorser import Proposal
from repro.fabric.network import Gateway
from repro.fabric.peer import ValidationCode


def test_invoke_commits_on_all_peers(network):
    user = network.register_user("alice")
    notice = network.invoke_sync(
        user, "supply", "create_item", {"item": "i1", "owner": "M1"}
    )
    assert notice.code is ValidationCode.VALID
    network.verify_convergence()
    for peer in network.peers:
        assert peer.statedb.get("supply~item~i1")["holder"] == "M1"
        peer.chain.locate(notice.tid)


def test_invoke_returns_chaincode_response(network):
    user = network.register_user("alice")
    notice = network.invoke_sync(
        user, "supply", "create_item", {"item": "i1", "owner": "M1"}
    )
    assert notice.response == {"holder": "M1", "hops": 0, "handlers": ["M1"]}


def test_query_does_not_commit(network):
    user = network.register_user("alice")
    network.invoke_sync(user, "supply", "create_item", {"item": "i1", "owner": "M1"})
    height = network.reference_peer.chain.height
    record = network.query("supply", "get_item", {"item": "i1"})
    assert record["holder"] == "M1"
    assert network.reference_peer.chain.height == height


def test_chaincode_error_fails_submission(network):
    user = network.register_user("alice")
    with pytest.raises(ChaincodeError):
        network.invoke_sync(
            user, "supply", "transfer",
            {"item": "ghost", "sender": "a", "receiver": "b"},
        )


def test_concurrent_submissions_batch_into_blocks(fast_config):
    network = build_network(fast_config)
    user = network.register_user("alice")
    events = [
        network.submit(
            Proposal(
                chaincode="supply",
                fn="create_item",
                args={"item": f"i{i}", "owner": "M1"},
                creator="alice",
            )
        )
        for i in range(30)
    ]
    done = network.env.all_of(events)
    notices = network.env.run(until=done)
    assert all(n.code is ValidationCode.VALID for n in notices)
    # 30 concurrent txs should land in very few blocks.
    assert network.reference_peer.chain.height <= 3
    network.verify_convergence()


def test_latency_reflects_region_model():
    single = build_network(
        NetworkConfig(latency=SINGLE_REGION, real_signatures=False)
    )
    multi = build_network(
        NetworkConfig(latency=MULTI_REGION, real_signatures=False)
    )
    for network in (single, multi):
        user = network.register_user("alice")
        network.invoke_sync(
            user, "supply", "create_item", {"item": "i", "owner": "M"}
        )
    lat_single = single.metrics.latencies_ms.values[0]
    lat_multi = multi.metrics.latencies_ms.values[0]
    # Multi-region pays several WAN hops on the commit path.
    assert lat_multi > lat_single + 200


def test_get_transaction_roundtrip(network):
    user = network.register_user("alice")
    notice = network.invoke_sync(
        user, "supply", "create_item", {"item": "i1", "owner": "M1"},
        public={"to": "M1"}, concealed=b"\x01\x02",
    )
    tx = network.get_transaction(notice.tid)
    assert tx.concealed == b"\x01\x02"
    assert tx.nonsecret["public"] == {"to": "M1"}


def test_metrics_accumulate(network):
    user = network.register_user("alice")
    for i in range(3):
        network.invoke_sync(
            user, "supply", "create_item", {"item": f"i{i}", "owner": "M"}
        )
    assert network.metrics.committed_requests.value == 3
    assert network.metrics.onchain_txs.value == 3
    assert len(network.metrics.latencies_ms) == 3


def test_gateway_wrappers(network):
    user = network.register_user("alice")
    gateway = Gateway(network, user)
    notice = gateway.invoke("supply", "create_item", {"item": "g1", "owner": "M"})
    assert notice.code is ValidationCode.VALID
    assert gateway.query("supply", "get_item", {"item": "g1"})["holder"] == "M"
    event = gateway.submit_async("supply", "create_item", {"item": "g2", "owner": "M"})
    notice2 = network.env.run(until=event)
    assert notice2.code is ValidationCode.VALID


def test_state_root_tracking(fast_config):
    network = build_network(fast_config)
    network.track_state_roots = True
    user = network.register_user("alice")
    network.invoke_sync(user, "supply", "create_item", {"item": "i", "owner": "M"})
    assert 0 in network.state_roots
    assert network.state_roots[0] == network.reference_peer.current_state_root()


def test_convergence_detects_divergence(network):
    user = network.register_user("alice")
    network.invoke_sync(user, "supply", "create_item", {"item": "i", "owner": "M"})
    # Corrupt one peer's state behind the network's back.
    from repro.ledger.statedb import Version

    network.peers[1].statedb.put("supply~item~i", {"holder": "EVIL"}, Version(9, 9))
    with pytest.raises(LedgerError, match="state diverged"):
        network.verify_convergence()


def test_storage_accounting_positive(network):
    user = network.register_user("alice")
    network.invoke_sync(user, "supply", "create_item", {"item": "i", "owner": "M"})
    assert network.total_storage_bytes() > 0
