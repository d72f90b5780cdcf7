"""Run ``async def`` serving code on the discrete-event simulation kernel.

Client sessions and the gateway drain loop are ordinary coroutines while
*time* stays simulated: a thousand sessions sleeping 10 ms each cost no
host wall-clock and replay deterministically.  The kernel is the only
scheduler.  **All serving code may await is** :meth:`SimBridge.wait` **on
a simulation event** (or :meth:`sleep`): the coroutine suspends by yielding
the event, and the event's own callback resumes it — inside the
``env.step()`` that fired it, in callback registration order.
"""

from __future__ import annotations

import types
from typing import Any, Coroutine

from repro.errors import SimulationError
from repro.sim.core import Environment, Event, _collector


@types.coroutine
def _suspend(event: Event):
    return (yield event)


class SimBridge:
    """Drives coroutines whose every await is a simulation event."""

    def __init__(self, env: Environment):
        self.env = env

    async def wait(self, event: Event) -> Any:
        """The event's value (or its exception) once it has fired — at once
        for a processed event, so racing waiters never miss a completed one."""
        if isinstance(event, Event) and event.processed:
            if not event.ok:
                raise event.value
            return event.value
        return await _suspend(event)

    async def sleep(self, delay_ms: float, value: Any = None) -> Any:
        """Suspend for ``delay_ms`` of *simulated* time."""
        return await self.wait(self.env.timeout(delay_ms, value))

    def run(self, *coroutines: Coroutine[Any, Any, Any]) -> list[Any]:
        """Start each coroutine, in argument order, then step the kernel
        until all have returned; results in input order.  A coroutine's
        exception aborts the run from the step that resumed it; the
        other coroutines are closed.  Like ``Environment.run``, it steps
        with the cyclic collector paused."""
        results: dict[Coroutine, Any] = {}
        collecting = _collector(False)
        try:
            for coroutine in coroutines:
                self._resume(results, coroutine)
            while len(results) < len(coroutines):
                if not self.env.pending_events:
                    raise SimulationError(
                        f"serving deadlock: {len(coroutines) - len(results)} "
                        "coroutine(s) suspended but the simulation queue is empty"
                    )
                self.env.step()
            return [results[coroutine] for coroutine in coroutines]
        finally:
            _collector(collecting)
            for coroutine in coroutines:
                coroutine.close()

    def _resume(
        self, results: dict[Coroutine, Any], coroutine: Coroutine, ok=True, value=None
    ) -> None:
        # A method, not a closure of ``run``: a nested function that
        # names itself is a cycle, and would keep ``results`` alive.
        try:
            target = coroutine.send(value) if ok else coroutine.throw(value)
        except StopIteration as stop:
            results[coroutine] = stop.value
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"serving coroutine awaited {target!r}, not a simulation Event"
            )
        target.callbacks.append(
            lambda ev: self._resume(results, coroutine, ev.ok, ev.value)
        )

    def close(self) -> None:
        """Nothing to release: the bridge owns no loop and no tasks."""
