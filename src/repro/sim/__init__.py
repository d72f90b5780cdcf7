"""Discrete-event simulation kernel.

A small, from-scratch simulation engine in the style of SimPy:
processes are Python generators that ``yield`` events (timeouts, other
processes, resource requests) and an :class:`Environment` advances a
virtual clock from event to event.

The LedgerView reproduction uses this kernel to model the *timing* of a
Hyperledger Fabric network — endorsement round-trips, ordering batch
timeouts, block dissemination, validation/commit service times — while
all *functional* behaviour (crypto, state, views) is executed for real.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def proc(env):
...     yield env.timeout(5)
...     log.append(env.now)
>>> _ = env.process(proc(env))
>>> env.run()
>>> log
[5]
"""

from repro.sim.core import Environment, Event, Interrupt, Process, Timeout
from repro.sim.faults import FaultDecision, MessageFaultModel, MessageFaultRule
from repro.sim.monitor import Counter, TimeSeries
from repro.sim.resources import Link, Resource, Store

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Interrupt",
    "Resource",
    "Store",
    "Link",
    "Counter",
    "TimeSeries",
    "FaultDecision",
    "MessageFaultModel",
    "MessageFaultRule",
]
