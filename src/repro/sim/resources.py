"""Shared-resource primitives for the simulation kernel.

- :class:`Resource` — a server pool with FIFO queueing (models CPU slots
  on peers/orderers, 2PC coordinator locks, ...).
- :class:`Store` — an unbounded (or bounded) FIFO item buffer (models
  message queues between network components).
- :class:`Link` — the reliable message hop between named nodes; the
  seam a fault injector substitutes itself at.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import SimulationError
from repro.sim.core import Environment, Event


class Resource:
    """A pool of ``capacity`` identical servers with a FIFO wait queue.

    Usage from a process::

        request = resource.request()
        yield request
        try:
            yield env.timeout(service_time)
        finally:
            resource.release(request)
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of servers currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a server."""
        return len(self._waiting)

    def request(self) -> Event:
        """Return an event that fires when a server is granted."""
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiting.append(event)
        return event

    def release(self, request: Event) -> None:
        """Hand a server back; wakes the longest-waiting request if any."""
        if not request.triggered:
            # Request never granted (still queued): cancel it.
            try:
                self._waiting.remove(request)
            except ValueError as exc:
                raise SimulationError("release of unknown request") from exc
            return
        if self._waiting:
            self._waiting.popleft().succeed()
        else:
            self._in_use -= 1
            if self._in_use < 0:
                raise SimulationError("resource released more times than acquired")


class Store:
    """A FIFO buffer of Python objects with blocking get/put."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> list[Any]:
        """Snapshot of buffered items (oldest first)."""
        return list(self._items)

    def put(self, item: Any) -> Event:
        """Event that fires once ``item`` is accepted into the buffer."""
        event = Event(self.env)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            event.succeed()
        elif len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Event that fires with the oldest available item as its value."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
            if self._putters:
                put_event, item = self._putters.popleft()
                self._items.append(item)
                put_event.succeed()
        else:
            self._getters.append(event)
        return event


class Link:
    """The reliable message hop between named nodes.

    Every message the Fabric model sends between sites — a broadcast to
    the orderer, a block to a peer — takes one link object.  This one
    never loses, delays, duplicates or reorders anything.
    :class:`repro.faults.FaultInjector` answers the same methods and
    installs itself in this object's place; senders cannot tell which of
    the two they are talking to.
    """

    #: Messages arrive in the order sent.  A receiver behind a link
    #: without that guarantee must re-sequence what lands.
    fifo = True

    def __init__(self, env: Environment):
        self.env = env

    def send(
        self,
        src: str,
        dst: str,
        base_ms: float,
        channel: str | None = None,
        kind: str | None = None,
        acked: bool = False,
    ):
        """One hop ``src`` → ``dst``, as a generator to ``yield from``.

        Returns how many copies arrived: 1 here; on a faulty link 0 is
        a lost message and 2 a duplicated one.  ``channel`` and
        ``kind`` name the message for fault rules; an ``acked``
        delivery is repeated until the receiver has it (never 0).
        """
        yield self.env.timeout(base_ms)
        return 1

    def service_factor(self, node: str) -> float:
        """Multiplier on ``node``'s service times (1.0 = healthy)."""
        return 1.0

    def up(self, node: str) -> bool:
        """Whether ``node`` is running."""
        return True

    def node_died(self, node: str, crash: BaseException) -> None:
        """``node`` crashed mid-operation.  Nothing here re-sends what a
        dead node missed, so the crash is not survivable."""
        raise crash
