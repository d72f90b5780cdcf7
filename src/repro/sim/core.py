"""Core of the discrete-event simulation kernel.

The model follows SimPy's architecture: an :class:`Environment` owns a
priority queue of ``(time, priority, sequence, event)`` entries; firing
an event runs its callbacks, and a :class:`Process` is itself an event
that resumes a generator each time an event it yielded fires.

Determinism: ties in time are broken by insertion sequence, so a given
seed and process structure always produces the same trajectory.

Collection: the stepping loops run with CPython's cyclic collector
paused.  The ledger only grows, so each pass would rescan the committed
chain and find nothing; reference counting frees what a run drops, as
long as the run makes no cycles (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import gc
import heapq
from collections.abc import Callable, Generator
from typing import Any

from repro.errors import SimulationError

#: Priority given to normal events; URGENT fires before NORMAL at equal times.
URGENT = 0
NORMAL = 1

_PENDING = object()


def _collector(enabled: bool) -> bool:
    """Switch automatic cyclic collection on or off; returns the previous
    setting, which the caller hands back in a ``finally`` to restore it
    (a nested run then leaves it paused)."""
    previous = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    return previous


class Event:
    """A happening at a point in simulated time.

    An event starts *pending*, is *triggered* when given a value (or an
    exception) and scheduled on the environment, and becomes *processed*
    after its callbacks have run.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = _PENDING
        self._ok = True

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is queued to fire."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """False when the event carries an exception instead of a value."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value read before it was triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._value = value
        self.env._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside any process waiting on it.
        """
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL)
        return self


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self._value = value
        self.delay = delay
        env._schedule(self, NORMAL, delay)


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator may ``yield`` any :class:`Event`.  When that event
    fires, the generator is resumed with the event's value (or the
    event's exception is thrown into it).
    """

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]):
        if not isinstance(generator, Generator):
            raise SimulationError(
                "process() expects a generator (did you forget to call the function?)"
            )
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Event | None = None
        # Bootstrap: resume immediately at the current time.
        trigger = Event(env)
        trigger._value = None
        env._schedule(trigger, URGENT)
        trigger.callbacks.append(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        if self._waiting_on is not None:
            target = self._waiting_on
            if target.callbacks is not None and self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
            self._waiting_on = None
        wakeup = Event(self.env)
        wakeup._ok = False
        wakeup._value = Interrupt(cause)
        self.env._schedule(wakeup, URGENT)
        wakeup.callbacks.append(self._resume)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            if event.ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            if not self.triggered:
                self._value = stop.value
                self.env._schedule(self, NORMAL)
            return
        except Exception as exc:
            # An exception the generator did not handle (an unhandled
            # interrupt included) fails the process event: whoever waits
            # on it sees the error, and ``step`` raises it if nobody does.
            # The stored traceback keeps the generator's frames but not
            # this one, whose ``self`` would close a cycle through it.
            if not self.triggered:
                self._ok = False
                self._value = exc.with_traceback(exc.__traceback__.tb_next)
                self.env._schedule(self, NORMAL)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {type(target).__name__}, expected an Event"
            )
        if target.callbacks is None:
            # Already processed: resume immediately with its value.
            immediate = Event(self.env)
            immediate._ok = target._ok
            immediate._value = target._value
            self.env._schedule(immediate, URGENT)
            immediate.callbacks.append(self._resume)
        else:
            self._waiting_on = target
            target.callbacks.append(self._resume)


class Environment:
    """The simulation clock and event loop."""

    def __init__(self, initial_time: float = 0.0):
        self._now = initial_time
        self._queue: list[tuple[float, int, int, Event]] = []
        self._sequence = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        heapq.heappush(
            self._queue, (self._now + delay, priority, self._sequence, event)
        )
        self._sequence += 1

    # -- public factory methods -----------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event (trigger manually with succeed/fail)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Launch ``generator`` as a process; returns its completion event."""
        return Process(self, generator)

    def all_of(self, events: list[Event]) -> Event:
        """An event that fires once all of ``events`` have fired.

        Its value is the list of individual event values in input order.
        A failure in any constituent fails the combined event.
        """
        combined = Event(self)
        if not events:
            combined._value = []
            self._schedule(combined, URGENT)
            return combined
        remaining = {"count": len(events)}
        values: list[Any] = [None] * len(events)

        def make_callback(index: int) -> Callable[[Event], None]:
            def on_fire(event: Event) -> None:
                if combined.triggered:
                    return
                if not event.ok:
                    combined.fail(event._value)
                    return
                values[index] = event._value
                remaining["count"] -= 1
                if remaining["count"] == 0:
                    combined.succeed(list(values))

            return on_fire

        for i, event in enumerate(events):
            if event.callbacks is None:
                cb = make_callback(i)
                proxy = Event(self)
                proxy._ok = event._ok
                proxy._value = event._value
                self._schedule(proxy, URGENT)
                proxy.callbacks.append(cb)
            else:
                event.callbacks.append(make_callback(i))
        return combined

    def any_of(self, events: list[Event]) -> Event:
        """An event that fires when the first of ``events`` fires."""
        combined = Event(self)
        if not events:
            raise SimulationError("any_of requires at least one event")

        def on_fire(event: Event) -> None:
            if combined.triggered:
                return
            if event.ok:
                combined.succeed(event._value)
            else:
                combined.fail(event._value)

        for event in events:
            if event.callbacks is None:
                proxy = Event(self)
                proxy._ok = event._ok
                proxy._value = event._value
                self._schedule(proxy, URGENT)
                proxy.callbacks.append(on_fire)
            else:
                event.callbacks.append(on_fire)
        return combined

    # -- the event loop ---------------------------------------------------

    def step(self) -> None:
        """Fire the next scheduled event."""
        if not self._queue:
            raise SimulationError("no more events to step through")
        time, _, _, event = heapq.heappop(self._queue)
        self._now = time
        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        if callbacks:
            for callback in callbacks:
                callback(event)
        elif not event._ok:
            # A failed event nobody waited on: surface the error rather
            # than letting it pass silently.  The raising frame lets go
            # of the event and the exception, or the traceback would
            # close a cycle through them.
            exc = event._value
            del event
            try:
                raise exc
            finally:
                del exc

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, a time is reached, or an event fires.

        Parameters
        ----------
        until:
            ``None`` — run to exhaustion; a number — run until that
            simulated time; an :class:`Event` — run until it fires and
            return its value.
        """
        collecting = _collector(False)
        try:
            if isinstance(until, Event):
                target = until
                while not target.processed:
                    if not self._queue:
                        raise SimulationError(
                            "simulation ran out of events before target event fired"
                        )
                    self.step()
                if not target.ok:
                    raise target._value
                return target._value
            if until is not None:
                horizon = float(until)
                if horizon < self._now:
                    raise SimulationError("cannot run to a time in the past")
                while self._queue and self._queue[0][0] <= horizon:
                    self.step()
                self._now = horizon
                return None
            while self._queue:
                self.step()
            return None
        finally:
            # This frame raises a failed target, and the traceback keeps
            # the frame: drop the names, or frame, target and exception
            # would hold one another.
            until = target = None
            _collector(collecting)

    @property
    def pending_events(self) -> int:
        """Number of events still queued (for diagnostics/tests)."""
        return len(self._queue)
