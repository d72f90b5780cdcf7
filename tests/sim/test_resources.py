"""Tests for Resource and Store."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource, Store


def test_resource_capacity_limits_concurrency():
    env = Environment()
    resource = Resource(env, capacity=2)
    log = []

    def worker(env, name):
        request = resource.request()
        yield request
        log.append((name, "start", env.now))
        yield env.timeout(10)
        resource.release(request)
        log.append((name, "end", env.now))

    for i in range(4):
        env.process(worker(env, f"w{i}"))
    env.run()
    starts = {name: t for name, what, t in log if what == "start"}
    assert starts == {"w0": 0, "w1": 0, "w2": 10, "w3": 10}


def test_resource_fifo_order():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def worker(env, name):
        request = resource.request()
        yield request
        order.append(name)
        yield env.timeout(1)
        resource.release(request)

    for i in range(5):
        env.process(worker(env, i))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_queue_length_and_in_use():
    env = Environment()
    resource = Resource(env, capacity=1)
    first = resource.request()
    assert first.triggered
    assert resource.in_use == 1
    second = resource.request()
    assert not second.triggered
    assert resource.queue_length == 1
    resource.release(first)
    assert second.triggered
    assert resource.queue_length == 0


def test_resource_cancel_queued_request():
    env = Environment()
    resource = Resource(env, capacity=1)
    held = resource.request()
    queued = resource.request()
    resource.release(queued)  # cancel while still waiting
    assert resource.queue_length == 0
    resource.release(held)
    assert resource.in_use == 0


def test_resource_invalid_capacity():
    with pytest.raises(SimulationError):
        Resource(Environment(), capacity=0)


def test_resource_over_release_detected():
    env = Environment()
    resource = Resource(env, capacity=1)
    request = resource.request()
    resource.release(request)
    with pytest.raises(SimulationError):
        resource.release(request)


def test_store_fifo_handoff():
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for i in range(3):
            yield env.timeout(1)
            yield store.put(i)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            received.append((env.now, item))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == [(1, 0), (2, 1), (3, 2)]


def test_store_get_before_put_blocks():
    env = Environment()
    store = Store(env)
    result = []

    def consumer(env):
        item = yield store.get()
        result.append((env.now, item))

    def producer(env):
        yield env.timeout(7)
        yield store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert result == [(7, "late")]


def test_store_capacity_blocks_putter():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put("a")
        log.append(("a in", env.now))
        yield store.put("b")  # blocks until a consumer frees space
        log.append(("b in", env.now))

    def consumer(env):
        yield env.timeout(5)
        item = yield store.get()
        log.append(("got " + item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ("a in", 0) in log
    assert ("b in", 5) in log


def test_store_items_snapshot():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    assert store.items == [1, 2]
    assert len(store) == 2
