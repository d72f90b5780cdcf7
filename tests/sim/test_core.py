"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Interrupt


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    observed = []

    def proc(env):
        yield env.timeout(5)
        observed.append(env.now)
        yield env.timeout(2.5)
        observed.append(env.now)

    env.process(proc(env))
    env.run()
    assert observed == [5, 7.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return "done"

    result = env.run(until=env.process(proc(env)))
    assert result == "done"


def test_processes_interleave_deterministically():
    env = Environment()
    log = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(proc(env, "slow", 10))
    env.process(proc(env, "fast", 1))
    env.process(proc(env, "tie-a", 5))
    env.process(proc(env, "tie-b", 5))
    env.run()
    assert log == [(1, "fast"), (5, "tie-a"), (5, "tie-b"), (10, "slow")]


def test_yielding_a_process_waits_for_it():
    env = Environment()

    def child(env):
        yield env.timeout(3)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        return (env.now, value)

    assert env.run(until=env.process(parent(env))) == (3, 42)


def test_yielding_already_completed_event():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        return "early"

    def parent(env, child_event):
        yield env.timeout(10)  # child finished long ago
        value = yield child_event
        return (env.now, value)

    child_event = env.process(child(env))
    result = env.run(until=env.process(parent(env, child_event)))
    assert result == (10, "early")


def test_event_fail_propagates_into_process():
    env = Environment()
    caught = []

    def proc(env, event):
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    event = env.event()
    env.process(proc(env, event))
    event.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_failed_process_raises_at_run_until():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise ValueError("inside process")

    with pytest.raises(ValueError, match="inside process"):
        env.run(until=env.process(proc(env)))


def test_a_raising_process_fails_its_event_for_whoever_waits():
    env = Environment()
    seen = []

    def child(env):
        yield env.timeout(1)
        raise ValueError("inside child")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            seen.append((env.now, str(exc)))
        yield env.timeout(1)
        return "parent finished"

    done = env.process(parent(env))
    watched = env.process(child(env))
    watched.callbacks.append(lambda fired: seen.append((fired.ok, type(fired.value))))
    assert env.run(until=done) == "parent finished"
    assert sorted(seen, key=str) == [(1.0, "inside child"), (False, ValueError)]


def test_a_raising_process_nobody_waits_on_still_stops_the_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise ValueError("unwatched")

    env.process(proc(env))
    with pytest.raises(ValueError, match="unwatched"):
        env.run()
    assert env.now == 1.0


def test_all_of_collects_values_in_order():
    env = Environment()

    def proc(env):
        values = yield env.all_of(
            [env.timeout(5, "a"), env.timeout(1, "b"), env.timeout(3, "c")]
        )
        return (env.now, values)

    assert env.run(until=env.process(proc(env))) == (5, ["a", "b", "c"])


def test_all_of_empty_list():
    env = Environment()

    def proc(env):
        values = yield env.all_of([])
        return values

    assert env.run(until=env.process(proc(env))) == []


def test_any_of_returns_first_value():
    env = Environment()

    def proc(env):
        value = yield env.any_of([env.timeout(5, "slow"), env.timeout(1, "fast")])
        return (env.now, value)

    assert env.run(until=env.process(proc(env))) == (1, "fast")


def test_any_of_requires_events():
    env = Environment()
    with pytest.raises(SimulationError):
        env.any_of([])


def test_run_until_time():
    env = Environment()
    log = []

    def proc(env):
        while True:
            yield env.timeout(10)
            log.append(env.now)

    env.process(proc(env))
    env.run(until=35)
    assert log == [10, 20, 30]
    assert env.now == 35


def test_run_to_past_rejected():
    env = Environment()
    env.run(until=10)
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_interrupt_wakes_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
            log.append("overslept")
        except Interrupt as interrupt:
            log.append(("interrupted", env.now, interrupt.cause))

    def interrupter(env, target):
        yield env.timeout(5)
        target.interrupt(cause="wake up")

    target = env.process(sleeper(env))
    env.process(interrupter(env, target))
    env.run()
    assert log == [("interrupted", 5, "wake up")]


def test_interrupting_finished_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    process = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        process.interrupt()


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_process_requires_generator():
    env = Environment()

    def not_a_generator():
        return 42

    with pytest.raises(SimulationError):
        env.process(not_a_generator())  # type: ignore[arg-type]


def test_run_until_event_exhausts_queue_error():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError):
        env.run(until=never)
