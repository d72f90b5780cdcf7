"""The kernel's collector policy: both stepping loops run with CPython's
cyclic collector paused and hand the caller's setting back, and runs
leave no cycles behind for it to find."""

from __future__ import annotations

import gc
import inspect
import traceback

import pytest

from repro import Gateway, HashBasedManager, ViewMode, build_network
from repro.errors import SimulationError
from repro.fabric.config import NetworkConfig
from repro.faults import FaultPlan, MessageFaultRule, RetryPolicy
from repro.serving.bridge import SimBridge
from repro.sim import Environment
from repro.views.predicates import AttributeEquals


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def prior(request):
    """The caller's collector setting going in; restored afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.fixture
def paused():
    """Collector off for the whole test, so that no automatic pass on
    re-enabling (allocation counts keep growing while paused) can
    collect a cycle before ``gc.collect()`` counts it."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    (gc.enable if was else gc.disable)()


def _recording(env, seen):
    yield env.timeout(1)
    seen.append(gc.isenabled())
    return "done"


@pytest.mark.parametrize("until", ["exhaust", "time", "event"])
def test_run_pauses_inside_a_process_and_restores_after(prior, until):
    env = Environment()
    seen = []
    process = env.process(_recording(env, seen))
    target = {"exhaust": None, "time": 5.0, "event": process}[until]
    env.run(until=target)
    assert seen == [False]
    assert gc.isenabled() is prior


def test_run_restores_after_it_raises(prior):
    env = Environment()

    def failing(env):
        yield env.timeout(1)
        raise ValueError("unwatched")

    env.process(failing(env))
    with pytest.raises(ValueError, match="unwatched"):
        env.run()
    assert gc.isenabled() is prior
    with pytest.raises(SimulationError, match="past"):
        env.run(until=0.5)
    assert gc.isenabled() is prior


def test_a_nested_run_leaves_the_outer_run_paused(prior):
    outer, inner = Environment(), Environment()
    seen = []

    def nesting(env):
        yield env.timeout(1)
        inner.process(_recording(inner, seen))
        inner.run()
        seen.append(gc.isenabled())

    outer.run(until=outer.process(nesting(outer)))
    assert seen == [False, False]
    assert gc.isenabled() is prior


def test_bridge_pauses_inside_a_coroutine_and_restores_after(prior):
    env = Environment()
    bridge = SimBridge(env)
    seen = []

    async def sleeper():
        await bridge.sleep(2.0)
        seen.append(gc.isenabled())

    bridge.run(sleeper())
    assert seen == [False]
    assert gc.isenabled() is prior


def test_bridge_restores_after_a_deadlock_and_a_raising_coroutine(prior):
    env = Environment()
    bridge = SimBridge(env)

    async def stuck():
        await bridge.wait(env.event())

    with pytest.raises(SimulationError, match="serving deadlock"):
        bridge.run(stuck())
    assert gc.isenabled() is prior

    async def crasher():
        await bridge.sleep(1.0)
        raise ValueError("crashed")

    with pytest.raises(ValueError, match="crashed"):
        bridge.run(crasher())
    assert gc.isenabled() is prior


def test_a_finished_bridge_run_leaves_no_cycles(paused):
    env = Environment()
    bridge = SimBridge(env)

    async def sleeper(delay):
        await bridge.sleep(delay)
        return {"slept": delay}

    assert bridge.run(sleeper(1.0), sleeper(2.0)) == [{"slept": 1.0}, {"slept": 2.0}]
    assert gc.collect() == 0


def test_failed_processes_leave_no_cycles(paused):
    env = Environment()
    seen = []

    def failing(env, index):
        yield env.timeout(1)
        raise ValueError(f"failure {index}")

    def waiter(env, index):
        try:
            yield env.process(failing(env, index))
        except ValueError as exc:
            names = [frame.name for frame in traceback.extract_tb(exc.__traceback__)]
            seen.append((type(exc), str(exc), names))

    for index in range(50):
        env.process(waiter(env, index))
    env.run()
    assert gc.collect() == 0
    assert len(seen) == 50
    kind, message, names = seen[7]
    assert (kind, message) == (ValueError, "failure 7")
    assert "failing" in names and "waiter" in names


def _failing(env, index):
    yield env.timeout(1)
    raise ValueError(f"failure {index}")


def _unwatched_failure(index):
    env = Environment()
    env.process(_failing(env, index))
    env.run()


def _watched(env, index):
    process = env.process(_failing(env, index))
    process.callbacks.append(lambda event: None)
    return process


def _failed_target(index):
    env = Environment()
    env.run(until=_watched(env, index))


@pytest.mark.parametrize(
    "abort, raiser",
    [(_unwatched_failure, "step"), (_failed_target, "run")],
    ids=["unwatched-event", "failed-target"],
)
def test_aborted_runs_leave_no_cycles(paused, abort, raiser):
    """``step`` raising a failed event nobody waited on, and ``run``
    raising its failed ``until`` target, each used to keep the event in
    a raising frame that the exception's traceback holds."""
    seen = []
    for index in range(10):
        try:
            abort(index)
        except ValueError as exc:
            names = [frame.name for frame in traceback.extract_tb(exc.__traceback__)]
            seen.append((type(exc), str(exc), names))
    assert gc.collect() == 0
    assert len(seen) == 10
    kind, message, names = seen[7]
    assert (kind, message) == (ValueError, "failure 7")
    assert names[-2:] == [raiser, "_failing"] and "run" in names


def _alive_network_generators() -> list[str]:
    """The suspended generators of network methods, the block pipeline's
    two standing loops left out."""
    return sorted(
        obj.gi_code.co_qualname
        for obj in gc.get_objects()
        if inspect.isgenerator(obj)
        and obj.gi_frame is not None
        and obj.gi_code.co_qualname.startswith("FabricNetwork.")
        and obj.gi_code.co_name not in ("_pump", "_cut_loop")
    )


def _closed_loop(network) -> None:
    """Eight clients, four view-maintained requests each, to completion."""
    manager = HashBasedManager(Gateway(network, network.register_user("alice")))
    manager.create_view("w1", AttributeEquals("to", "W1"), ViewMode.REVOCABLE)
    env = network.env

    def client(index):
        for step in range(4):
            item = f"item-{index}-{step}"
            outcome = yield manager.invoke_with_secret_async(
                fn="create_item",
                args={"item": item, "owner": "W1"},
                public={"item": item, "from": "M1", "to": f"W{step % 2}"},
                secret=b"secret %d" % step,
            )
            assert outcome.views == (["w1"] if step % 2 else [])

    env.run(until=env.all_of([env.process(client(index)) for index in range(8)]))
    assert network.reference_peer.chain.height > 2


def test_a_fault_free_closed_loop_leaves_nothing_to_collect(paused):
    """What makes pausing safe: a run's garbage is all freed by
    reference counting, so the collector would have found nothing."""
    network = build_network()
    _closed_loop(network)
    assert gc.collect() == 0
    # A crash drops the peer's world state: the state database and the
    # digest listening to it go with reference counting alone.
    network.peers[-1].reset_world_state()
    assert gc.collect() == 0


def test_a_lossy_closed_loop_leaves_no_parked_submission(paused):
    """Lost broadcasts make requests retry.  A timed-out attempt used to
    stay parked on a commit event the retry replaced: a suspended
    generator per lost broadcast, and a cycle."""
    plan = FaultPlan(
        seed=3,
        retry=RetryPolicy(timeout_ms=400.0, backoff_ms=40.0, jitter_ms=15.0),
        messages=(MessageFaultRule(channel="client_to_orderer", drop=0.3),),
    )
    network = build_network(NetworkConfig(fault_plan=plan.to_json()))
    _closed_loop(network)
    assert network.faults.stats["retries"] > 0
    assert _alive_network_generators() == []
    assert gc.collect() == 0
