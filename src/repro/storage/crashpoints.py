"""Crash-point injection: deterministic process death mid-durability-op.

Every durable operation a :class:`~repro.storage.node.NodeStore` issues
— a WAL record append, a snapshot write, an fsync, a snapshot
prune — passes through one :class:`CrashPointGuard`, which counts it.
Arming the guard at op *N* (via :class:`repro.faults.CrashPointSpec`)
makes the *N*-th operation raise
:class:`~repro.errors.SimulatedCrashError` instead of completing: the
node is dead at exactly that instant, with everything earlier durable
and everything later lost.  Because the counter is a pure function of
the committed workload, a sweep can crash a deterministic run at
*every* op index and assert recovery at each one.

Two refinements model real failure shapes:

- ``partial_fraction`` on an append op writes only a prefix of the
  record before dying — a torn write at the WAL tail, which recovery
  must detect (per-record CRC) and truncate.
- Atomic whole-file writes (snapshots) crash *before* the
  rename, so a fired write op leaves no partial file — exactly the
  guarantee temp-file + ``os.replace`` gives on disk.

Fsync model: the in-memory filesystem makes writes durable when issued,
so an fsync op is a counted **crash window** (the "between fsync
points" case) rather than a visibility barrier.  Recovery itself is
not crash-injected (single-fault model): replay reads and the
torn-tail truncate bypass the guard.
"""

from __future__ import annotations

from repro.errors import SimulatedCrashError
from repro.storage.fs import Filesystem


class CrashPointGuard:
    """Counts durable ops and kills the node at armed indices."""

    def __init__(self) -> None:
        #: Total durable operations issued so far (1-based at check time).
        self.op_count = 0
        self._armed: list[tuple[int, float | None]] = []
        #: Op index of the most recent fired crash (None = never fired).
        self.fired_at: int | None = None

    def arm(self, at_op: int, partial_fraction: float | None = None) -> None:
        """Schedule a crash at the ``at_op``-th durable operation."""
        self._armed.append((at_op, partial_fraction))

    def disarm(self) -> None:
        """Cancel all pending crash points (heal)."""
        self._armed.clear()

    def intercept(self, data: bytes | None = None) -> SimulatedCrashError | None:
        """Count one durable op; return the crash to raise, if armed here.

        The caller (not this method) raises the returned error — after
        first writing ``error.torn_prefix``, when the crash tears an
        append.  Each armed point is one-shot: firing removes it, so a
        recovered node does not re-crash on its next op.
        """
        self.op_count += 1
        for index, (at_op, fraction) in enumerate(self._armed):
            if at_op == self.op_count:
                del self._armed[index]
                self.fired_at = at_op
                torn = None
                if data is not None and fraction:
                    torn = data[: max(1, int(len(data) * fraction))]
                return SimulatedCrashError(
                    f"injected crash at durable op {at_op}"
                    + (" (torn write)" if torn else ""),
                    torn_prefix=torn,
                )
        return None


def guarded_append(
    fs: Filesystem, guard: CrashPointGuard | None, path: str, data: bytes
) -> None:
    """Append ``data``; an armed crash may first write a torn prefix."""
    if guard is not None:
        crash = guard.intercept(data)
        if crash is not None:
            if crash.torn_prefix:
                fs.append(path, crash.torn_prefix)
            raise crash
    fs.append(path, data)


def guarded_write(
    fs: Filesystem, guard: CrashPointGuard | None, path: str, data: bytes
) -> None:
    """Atomic whole-file write; an armed crash leaves no partial file."""
    if guard is not None:
        crash = guard.intercept()
        if crash is not None:
            raise crash
    fs.write(path, data)


def guarded_fsync(
    fs: Filesystem, guard: CrashPointGuard | None, path: str
) -> None:
    if guard is not None:
        crash = guard.intercept()
        if crash is not None:
            raise crash
    fs.fsync(path)


def guarded_remove(
    fs: Filesystem, guard: CrashPointGuard | None, path: str
) -> None:
    if guard is not None:
        crash = guard.intercept()
        if crash is not None:
            raise crash
    fs.remove(path)
