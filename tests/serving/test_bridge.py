"""The coroutine/simulation bridge: determinism, failure, deadlock."""

from __future__ import annotations

import gc
import types

import pytest

from repro.errors import SimulationError
from repro.serving.bridge import SimBridge
from repro.sim.core import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def bridge(env):
    b = SimBridge(env)
    yield b
    b.close()


def test_sleep_advances_simulated_time(env, bridge):
    async def napper():
        await bridge.sleep(12.5)
        return env.now

    assert bridge.run(napper()) == [12.5]
    assert env.now == 12.5


def test_interleaving_follows_simulated_clocks(env, bridge):
    trace = []

    async def ticker(name, period, count):
        for _ in range(count):
            await bridge.sleep(period)
            trace.append((name, env.now))

    bridge.run(ticker("a", 3.0, 2), ticker("b", 5.0, 1))
    assert trace == [("a", 3.0), ("b", 5.0), ("a", 6.0)]


def test_results_in_input_order(env, bridge):
    async def sleeper(delay, tag):
        await bridge.sleep(delay)
        return tag

    # The slower coroutine comes first; results must not be reordered.
    assert bridge.run(sleeper(9.0, "slow"), sleeper(1.0, "fast")) == [
        "slow",
        "fast",
    ]


def test_wait_on_already_processed_event(env, bridge):
    event = env.timeout(1.0, "ready")

    async def late_waiter():
        await bridge.sleep(5.0)  # event fires long before this resumes
        return await bridge.wait(event)

    assert bridge.run(late_waiter()) == ["ready"]


def test_wait_propagates_event_failure(env, bridge):
    event = env.event()

    async def waiter():
        await bridge.wait(event)

    async def failer():
        await bridge.sleep(1.0)
        event.fail(RuntimeError("boom"))

    with pytest.raises(RuntimeError, match="boom"):
        bridge.run(waiter(), failer())


def test_task_exception_aborts_run(env, bridge):
    async def crasher():
        await bridge.sleep(1.0)
        raise ValueError("crashed mid-run")

    async def bystander():
        await bridge.sleep(100.0)

    with pytest.raises(ValueError, match="crashed mid-run"):
        bridge.run(crasher(), bystander())


def test_deadlock_raises_instead_of_spinning(env, bridge):
    orphan = env.event()  # nothing will ever trigger this

    async def stuck():
        await bridge.wait(orphan)

    with pytest.raises(SimulationError, match="deadlock"):
        bridge.run(stuck())


def test_two_runs_produce_identical_traces():
    def one_run():
        env = Environment()
        bridge = SimBridge(env)
        trace = []

        async def worker(name, period):
            for tick in range(4):
                await bridge.sleep(period)
                trace.append((name, tick, env.now))

        try:
            bridge.run(worker("x", 2.0), worker("y", 3.0), worker("z", 2.0))
        finally:
            bridge.close()
        return trace

    assert one_run() == one_run()


def test_waiters_on_one_event_resume_in_registration_order(env, bridge):
    gate = env.event()
    order = []

    async def waiter(name):
        order.append((name, "waits"))
        value = await bridge.wait(gate)
        order.append((name, value, env.now))

    async def opener():
        await bridge.sleep(4.0)
        gate.succeed("open")

    bridge.run(waiter("first"), waiter("second"), opener())
    assert order == [
        ("first", "waits"),
        ("second", "waits"),
        ("first", "open", 4.0),
        ("second", "open", 4.0),
    ]


def test_aborted_run_leaves_no_unawaited_coroutine(env, bridge, recwarn):
    cleaned_up = []

    async def crasher():
        raise ValueError("crashed at start")

    async def suspended():
        try:
            await bridge.sleep(100.0)
        finally:
            cleaned_up.append("suspended")

    async def never_started():
        await bridge.sleep(1.0)

    # The first coroutine dies before the third was ever started, and
    # the second is closed mid-sleep: neither may be left to the
    # garbage collector to complain about.
    with pytest.raises(ValueError, match="crashed at start"):
        bridge.run(suspended(), crasher(), never_started())
    gc.collect()
    assert cleaned_up == ["suspended"]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_awaiting_a_non_event_raises(env, bridge):
    @types.coroutine
    def foreign_awaitable():
        yield "not an event"

    async def confused():
        await foreign_awaitable()

    with pytest.raises(SimulationError, match="'not an event'"):
        bridge.run(confused())

    async def passes_a_number():
        await bridge.wait(12.5)

    with pytest.raises(SimulationError, match="12.5"):
        bridge.run(passes_a_number())


NO_ASYNCIO_SCRIPT = """
import sys

from repro import build_network
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.serving import (
    AdmissionConfig,
    NetworkTarget,
    OpenLoopConfig,
    counter_builder,
    run_open_loop,
)
from repro.workload.zipf import CounterContract

network = build_network(
    NetworkConfig(latency=SINGLE_REGION, real_signatures=False, batch_timeout_ms=15.0)
)
network.install_chaincode(CounterContract())
metrics, requests = run_open_loop(
    NetworkTarget(network, network.register_user("client")),
    OpenLoopConfig(offered_tps=200.0, requests=40, sessions=4, seed=3),
    counter_builder(),
    admission=AdmissionConfig(),
)
assert metrics.committed == 40 and network.queue_depth() == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "asyncio"))
"""


def test_a_serving_run_never_imports_asyncio(fresh_interpreter):
    """The kernel is the only scheduler: no second event loop is even
    loaded (it was ~3.8 MiB of every worker's resident set)."""
    assert fresh_interpreter(NO_ASYNCIO_SCRIPT) == "[]"
