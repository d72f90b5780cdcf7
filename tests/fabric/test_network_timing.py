"""Timing-model tests: block cutting, queueing, and kind threading."""

import itertools

import pytest

from repro import build_network
from repro.errors import ChaincodeError
from repro.fabric.chaincode import Chaincode
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.endorser import Proposal


def _network(**overrides):
    params = {
        "latency": SINGLE_REGION,
        "real_signatures": False,
    }
    params.update(overrides)
    return build_network(NetworkConfig(**params))


def test_single_tx_latency_close_to_batch_timeout():
    """At idle, the block is cut on the batch timeout, which dominates
    the commit latency of a lone transaction."""
    network = _network(batch_timeout_ms=500.0)
    user = network.register_user("u")
    network.invoke_sync(user, "supply", "create_item", {"item": "i", "owner": "x"})
    latency = network.metrics.latencies_ms.values[0]
    assert 500 <= latency <= 700


def test_full_block_cut_beats_the_timeout():
    """Enough concurrent transactions cut the block on count, well
    before the (here huge) batch timeout."""
    network = _network(batch_timeout_ms=60_000.0, block_max_transactions=10)
    user = network.register_user("u")
    events = [
        network.submit(
            Proposal(
                chaincode="supply",
                fn="create_item",
                args={"item": f"i{i}", "owner": "x"},
                creator="u",
            )
        )
        for i in range(10)
    ]
    network.env.run(until=network.env.all_of(events))
    assert network.env.now < 1_000
    assert network.ordering.cut_reasons["count"] >= 1


def test_byte_cut_reason_recorded():
    network = _network(block_max_bytes=2_000, batch_timeout_ms=60_000.0)
    user = network.register_user("u")
    events = [
        network.submit(
            Proposal(
                chaincode="supply",
                fn="create_item",
                args={"item": f"i{i}", "owner": "x"},
                concealed=b"\x00" * 900,  # ~1.8 KiB serialized
                creator="u",
            )
        )
        for i in range(4)
    ]
    network.env.run(until=network.env.all_of(events))
    assert network.ordering.cut_reasons["bytes"] >= 1


def test_contract_write_costs_more_validation_time():
    plain = _network(batch_timeout_ms=100.0)
    user_p = plain.register_user("u")
    plain.invoke_sync(user_p, "supply", "create_item", {"item": "i", "owner": "x"})

    heavy = _network(batch_timeout_ms=100.0)
    user_h = heavy.register_user("u")
    heavy.invoke_sync(
        heavy.msp.get("u"),
        "viewstorage",
        "merge",
        {"view": "v", "entries": {"t": b"\x00" * 64}},
        contract_write=True,
    )
    lat_plain = plain.metrics.latencies_ms.values[0]
    lat_heavy = heavy.metrics.latencies_ms.values[0]
    assert lat_heavy > lat_plain


def test_validation_queue_backs_up_under_load():
    """Offered load beyond the validation ceiling grows the queue and
    the p95 latency relative to an idle network."""
    idle = _network(batch_timeout_ms=100.0)
    user = idle.register_user("u")
    idle.invoke_sync(user, "supply", "create_item", {"item": "i", "owner": "x"})
    idle_latency = idle.metrics.latencies_ms.values[0]

    loaded = _network(batch_timeout_ms=100.0, validate_tx_ms=20.0)
    user2 = loaded.register_user("u")
    events = [
        loaded.submit(
            Proposal(
                chaincode="supply",
                fn="create_item",
                args={"item": f"i{i}", "owner": "x"},
                creator="u",
            )
        )
        for i in range(100)
    ]
    loaded.env.run(until=loaded.env.all_of(events))
    assert loaded.metrics.latencies_ms.summary().p95 > 3 * idle_latency


def test_transaction_kinds_recorded_on_ledger(network):
    user = network.register_user("u")
    notice = network.invoke_sync(
        user, "notary", "record", public={"x": 1}, kind="view-access"
    )
    assert network.get_transaction(notice.tid).kind == "view-access"
    default = network.invoke_sync(
        user, "supply", "create_item", {"item": "i", "owner": "x"}
    )
    assert network.get_transaction(default.tid).kind == "invoke"


def test_two_networks_share_one_clock(fast_config):
    from repro.sim import Environment

    env = Environment()
    a = build_network(fast_config, env=env, chain_name="a")
    b = build_network(fast_config, env=env, chain_name="b")
    user_a = a.register_user("ua")
    user_b = b.register_user("ub")
    a.invoke_sync(user_a, "supply", "create_item", {"item": "i", "owner": "x"})
    t_mid = env.now
    b.invoke_sync(user_b, "supply", "create_item", {"item": "i", "owner": "x"})
    assert env.now > t_mid
    # Ledgers are independent.
    assert len(list(a.reference_peer.chain.transactions())) == 1
    assert len(list(b.reference_peer.chain.transactions())) == 1


def test_failed_endorsement_surfaces_after_every_endorser_and_the_reply_hop():
    """The client cannot learn of an endorsement failure before the
    responses travel back: every endorser's CPU slot and service time
    is paid, then the reply hop, and only then does ``submit`` fail —
    with the *first* endorser's error."""
    network = _network(endorsement_policy=2)
    calls = itertools.count()

    class Refusing(Chaincode):
        name = "refusing"

        def fn_refuse(self, ctx):
            raise ChaincodeError(f"refused by endorser {next(calls)}")

    network.install_chaincode(Refusing())
    event = network.submit(Proposal(chaincode="refusing", fn="refuse", creator="u"))
    with pytest.raises(ChaincodeError, match="refused by endorser 0"):
        network.env.run(until=event)
    cfg = network.config
    endorse_service_ms = cfg.endorse_base_ms + cfg.payload_delay_ms(
        256, cfg.endorse_per_kib_ms
    )
    assert next(calls) == 2  # both endorsers simulated the proposal
    assert network.env.now == pytest.approx(
        2 * cfg.latency.client_to_peer + 2 * endorse_service_ms, abs=1e-9
    )
