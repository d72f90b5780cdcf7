"""ShardedNetwork: identity at N=1, locality, per-shard views,
whole-shard crash/recovery as a ``crash_chain`` plan event."""

import pytest

from repro import build_network
from repro.errors import FaultInjectionError, LedgerError, WorkloadError
from repro.fabric.config import NetworkConfig
from repro.fabric.network import Gateway
from repro.fabric.peer import ValidationCode
from repro.faults import InvariantMonitor, recovery
from repro.ledger.statedb import Version
from repro.sharding import ShardedGateway, ShardedNetwork
from repro.sharding.network import shard_names
from repro.sim import Environment
from repro.views.encryption_based import EncryptionBasedManager
from repro.views.predicates import AttributeEquals
from repro.views.types import ViewMode
from repro.workload.zipf import CounterContract

SECRET = b'{"type":"phone","amount":10,"price_cents":19900}'

FAST = dict(real_signatures=False, batch_timeout_ms=20.0)


def _durable_deployment(shards=3):
    sharded = ShardedNetwork(
        config=NetworkConfig(storage_backend="memory", **FAST),
        shard_count=shards,
    )
    for network in sharded.shards:
        network.install_chaincode(CounterContract())
    return sharded, ShardedGateway(sharded, "client")


def _diverge(network):
    """Give one non-reference peer a key no other peer of ``network`` holds."""
    network.peers[-1].statedb.put("stray", 1, Version(block=0, position=0))


class TestShardNames:
    def test_single_shard_reuses_reference_chain_name(self):
        assert shard_names(1) == ["main"]
        assert shard_names(3) == ["shard-0", "shard-1", "shard-2"]
        with pytest.raises(WorkloadError):
            shard_names(0)


class TestSingleShardByteIdentity:
    """A 1-shard sharded deployment IS the reference deployment."""

    @staticmethod
    def _workload_on(manager, grant):
        codes, tids = [], []
        for i in range(4):
            item = f"item-{i}"
            outcome = manager.invoke_with_secret(
                "create_item",
                {"item": item, "owner": "W1"},
                {"item": item, "from": None, "to": "W1", "access": ["W1"]},
                SECRET,
            )
            codes.append(outcome.notice.code)
            tids.append(outcome.tid)
        grant("w1", "bob")
        return codes, tids

    def test_fingerprint_matches_unsharded_reference(self, rearm):
        config = NetworkConfig(**FAST)

        # Leg 1: the plain unsharded network.
        rearm()
        env = Environment()
        reference = build_network(config, env, chain_name="main")
        owner = reference.register_user("owner")
        reference.register_user("bob")
        manager = EncryptionBasedManager(Gateway(reference, owner))
        manager.create_view("w1", AttributeEquals("to", "W1"), ViewMode.REVOCABLE)
        ref_codes, ref_tids = self._workload_on(manager, manager.grant_access)
        ref_peer = reference.reference_peer

        # Leg 2: the same workload through a 1-shard ShardedNetwork.
        rearm()
        sharded = ShardedNetwork(config=config, shard_count=1)
        manager = EncryptionBasedManager(ShardedGateway(sharded, "owner").on(0))
        sharded.shards[0].register_user("bob")
        manager.create_view("w1", AttributeEquals("to", "W1"), ViewMode.REVOCABLE)
        codes, tids = self._workload_on(manager, manager.grant_access)

        assert codes == ref_codes
        assert tids == ref_tids
        fp = sharded.fingerprint()["main"]
        assert fp["height"] == ref_peer.chain.height
        assert fp["tip_hash"] == ref_peer.chain.tip_hash.hex()
        assert fp["state_root"] == ref_peer.current_state_root().hex()
        assert sharded.env.now == env.now
        InvariantMonitor(sharded.shards[0]).check()

    def test_view_owner_routes_everything_to_the_only_shard(self, rearm):
        rearm()
        sharded = ShardedNetwork(config=NetworkConfig(**FAST))
        assert sharded.shard_count == 1
        owner = ShardedGateway(sharded, "owner")
        assert owner.shard_of("view:anything") == 0
        assert sharded.shard_index("any-key") == 0


class TestViewsPerShard:
    """A view lives on its home shard, under a manager built on that
    shard's gateway, so every shard's ``check()`` reads its views."""

    def test_every_shard_view_passes_the_view_oracle(self):
        sharded = ShardedNetwork(config=NetworkConfig(**FAST), shard_count=2)
        monitors = [InvariantMonitor(network) for network in sharded.shards]
        owner = ShardedGateway(sharded, "owner")
        ShardedGateway(sharded, "bob")
        managers = [EncryptionBasedManager(owner.on(i)) for i in range(2)]
        # One view per shard, each on the shard the ring places it.
        names = {}
        for i in range(200):
            names.setdefault(sharded.shard_index(f"view:w{i}"), f"w{i}")
            if len(names) == 2:
                break
        for shard, manager in enumerate(managers):
            view = names[shard]
            manager.create_view(view, AttributeEquals("to", view), ViewMode.REVOCABLE)
            for j in range(3):
                item = f"{view}-item-{j}"
                outcome = manager.invoke_with_secret(
                    "create_item",
                    {"item": item, "owner": view},
                    {"item": item, "from": None, "to": view, "access": [view]},
                    SECRET,
                )
                assert outcome.notice.code is ValidationCode.VALID
                assert outcome.views == [view]
            manager.grant_access(view, "bob")
            manager.revoke_access(view, "bob")
            assert manager.buffer.get(view).key_version == 1
        assert [len(n.view_managers) for n in sharded.shards] == [1, 1]
        for monitor in monitors:
            monitor.check()


class TestRoutingLocality:
    def test_single_key_traffic_stays_on_its_home_shard(self):
        sharded, gateway = _durable_deployment(shards=4)
        keys = [f"account-{i}" for i in range(6)]
        homes = {key: sharded.shard_index(key) for key in keys}
        assert len(set(homes.values())) > 1  # the trace actually spreads
        before = [n.reference_peer.chain.height for n in sharded.shards]
        for key in keys:
            notice = gateway.invoke(
                key, "counter", "bump", {"key": key, "amount": 1}
            )
            assert notice.code is ValidationCode.VALID
        after = [n.reference_peer.chain.height for n in sharded.shards]
        for shard in range(4):
            touched = any(homes[key] == shard for key in keys)
            assert (after[shard] > before[shard]) == touched

    def test_route_refuses_a_dark_home_and_commits_on_a_live_one(self, outage):
        sharded, gateway = _durable_deployment(shards=3)
        key = next(
            f"probe-{i}" for i in range(100) if sharded.shard_index(f"probe-{i}") == 1
        )
        for kind in ("crash_chain", "partition_chain"):
            injector = outage(sharded.shards[1], kind)
            with pytest.raises(FaultInjectionError, match="shard-1.*unreachable"):
                gateway.submit_async(key, "counter", "bump", {"key": key, "amount": 1})
            injector.heal()
        assert sharded.route(key) == 1
        before = [n.reference_peer.chain.height for n in sharded.shards]
        done = gateway.submit_async(key, "counter", "bump", {"key": key, "amount": 2})
        assert sharded.run(until=done).code is ValidationCode.VALID
        after = [n.reference_peer.chain.height for n in sharded.shards]
        assert [a > b for a, b in zip(after, before)] == [False, True, False]
        assert sharded.shards[1].query("counter", "get", {"key": key}) == 2

    def test_routed_query_reads_the_home_shard(self):
        sharded, gateway = _durable_deployment(shards=4)
        gateway.invoke("k-route", "counter", "bump", {"key": "k-route", "amount": 5})
        assert gateway.query("k-route", "counter", "get", {"key": "k-route"}) == 5
        home = sharded.shard_index("k-route")
        for shard, network in enumerate(sharded.shards):
            value = network.query("counter", "get", {"key": "k-route"})
            assert value == (5 if shard == home else 0)


class TestWholeShardCrash:
    def test_crash_requires_durability(self, outage):
        # Pinned off: an ambient REPRO_STORAGE_BACKEND must not arm it.
        sharded = ShardedNetwork(
            config=NetworkConfig(storage_backend="none", **FAST), shard_count=2
        )
        with pytest.raises(FaultInjectionError, match="crash_chain needs a storage"):
            outage(sharded.shards[0], "crash_chain")
        assert sharded.shard_reachable(0)

    def test_crash_recover_roundtrip_preserves_state(self, outage):
        sharded, gateway = _durable_deployment(shards=3)
        for shard in range(3):
            for _ in range(3):
                notice = gateway.on(shard).invoke(
                    "counter", "bump", {"key": f"k{shard}", "amount": 1}
                )
                assert notice.code is ValidationCode.VALID
        before = sharded.fingerprint()
        injector = outage(sharded.shards[1], "crash_chain")
        assert not sharded.shard_reachable(1)
        # The crashed shard refuses routed traffic...
        key = next(
            f"probe-{i}" for i in range(100) if sharded.shard_index(f"probe-{i}") == 1
        )
        with pytest.raises(FaultInjectionError, match="unreachable"):
            gateway.invoke(key, "counter", "bump", {"key": key, "amount": 1})
        # ...and its memory really is gone.
        assert len(sharded.shards[1].block_log) == 0
        assert sharded.shards[1].query("counter", "get", {"key": "k1"}) == 0

        # Survivors keep committing while shard 1 is dark.
        for shard in (0, 2):
            notice = gateway.on(shard).invoke(
                "counter", "bump", {"key": f"k{shard}", "amount": 1}
            )
            assert notice.code is ValidationCode.VALID

        injector.heal()
        assert sharded.shard_reachable(1)
        assert all(peer.last_recovery is not None for peer in sharded.shards[1].peers)
        # Shard 1 is byte-identical to its pre-crash self (it took no
        # traffic while down); survivors advanced.
        after = sharded.fingerprint()
        assert after["shard-1"] == before["shard-1"]
        for name in ("shard-0", "shard-2"):
            assert after[name]["height"] == before[name]["height"] + 1
        assert sharded.shards[1].query("counter", "get", {"key": "k1"}) == 3
        sharded.verify_convergence()

    def test_recovered_shard_accepts_traffic_again(self, outage):
        sharded, gateway = _durable_deployment(shards=2)
        gateway.on(1).invoke("counter", "bump", {"key": "x", "amount": 2})
        # Recovered at the event's for_ms, not by heal().
        outage(sharded.shards[1], "crash_chain", for_ms=50.0)
        assert sharded.shards[1].query("counter", "get", {"key": "x"}) == 0
        sharded.run(until=sharded.env.now + 50.0)
        assert sharded.shard_reachable(1)
        notice = gateway.on(1).invoke("counter", "bump", {"key": "x", "amount": 3})
        assert notice.code is ValidationCode.VALID
        assert sharded.shards[1].query("counter", "get", {"key": "x"}) == 5

    def test_queue_gauge_forgets_transactions_lost_to_the_crash(self, outage):
        """Submissions in flight when the shard dies never commit; the
        back-pressure gauge (accepted - committed) must not carry them
        as load into the gateway's shed watermark ever after."""
        sharded, gateway = _durable_deployment(shards=2)
        on_shard = gateway.on(0)
        for i in range(5):
            on_shard.invoke("counter", "bump", {"key": f"pre-{i}", "amount": 1})
        for i in range(7):
            on_shard.submit_async("counter", "bump", {"key": f"lost-{i}", "amount": 1})
        # Past endorsement and into the orderer, not yet committed.
        sharded.run(until=sharded.env.now + 8.0)
        assert sharded.shards[0].queue_depth() > 0
        outage(sharded.shards[0], "crash_chain").heal()
        sharded.run(until=sharded.env.now + 2_000.0)  # drain
        assert sharded.shards[0].queue_depth() == 0
        assert sharded.queue_depth() == 0
        notice = on_shard.invoke("counter", "bump", {"key": "post", "amount": 1})
        assert notice.code is ValidationCode.VALID
        assert sharded.queue_depth() == 0

    def test_recover_refuses_peers_that_come_back_diverged(self, monkeypatch, outage):
        sharded, gateway = _durable_deployment(shards=2)
        gateway.on(1).invoke("counter", "bump", {"key": "x", "amount": 1})
        injector = outage(sharded.shards[1], "crash_chain")
        restore = recovery.recover_peer

        def restore_then_diverge(network, peer):
            refetched = restore(network, peer)
            if peer is network.peers[-1]:
                _diverge(network)
            return refetched

        monkeypatch.setattr(recovery, "recover_peer", restore_then_diverge)
        with pytest.raises(LedgerError, match="state diverged"):
            injector.heal()
        assert not sharded.shard_reachable(1)

    def test_verify_convergence_checks_every_live_shard_and_skips_a_crashed_one(
        self, outage
    ):
        for live in (0, 2):
            sharded, _gateway = _durable_deployment(shards=3)
            outage(sharded.shards[1], "crash_chain")
            _diverge(sharded.shards[1])
            sharded.verify_convergence()
            _diverge(sharded.shards[live])
            with pytest.raises(LedgerError, match="state diverged"):
                sharded.verify_convergence()

    def test_routed_invoke_raises_while_home_shard_down(self, outage):
        sharded, gateway = _durable_deployment(shards=3)
        key = next(
            f"probe-{i}" for i in range(100) if sharded.shard_index(f"probe-{i}") == 1
        )
        outage(sharded.shards[1], "crash_chain")
        with pytest.raises(FaultInjectionError, match="unreachable"):
            gateway.invoke(key, "counter", "bump", {"key": key, "amount": 1})


class TestObservability:
    def test_per_shard_stats_and_harness_extra(self):
        sharded, gateway = _durable_deployment(shards=2)
        for shard in range(2):
            gateway.on(shard).invoke(
                "counter", "bump", {"key": f"k{shard}", "amount": 1}
            )
        stats = sharded.per_shard_stats()
        assert [s["shard"] for s in stats] == ["shard-0", "shard-1"]
        for entry in stats:
            assert entry["committed"] >= 1
            assert entry["blocks"] >= 1
            assert entry["height"] >= 1
            assert entry["orderer_queue_peak"] >= 1
            assert entry["reachable"] is True
            assert "aborted" in entry and "rebased" in entry
            assert "mvcc_retries" in entry
        extra = sharded.harness_extra()
        assert extra["shard_count"] == 2
        assert extra["per_shard"] == stats
        assert set(extra["cross_shard"]) >= {"begun", "committed", "aborted"}

    def test_orderer_queue_peak_tracks_burst_depth(self):
        sharded, gateway = _durable_deployment(shards=1)
        events = [
            gateway.on(0).submit_async(
                "counter", "bump", {"key": "burst", "amount": 1}
            )
            for _ in range(6)
        ]
        sharded.run(until=sharded.env.all_of(events))
        assert sharded.shards[0].orderer_queue_peak >= 2
