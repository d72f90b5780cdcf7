"""Unit tests for the :class:`PhaseWallClock` accounting.  Shared
validation verdicts are checked against a lone replay and the isolation
oracle in ``test_validation_differential.py``.
"""

from __future__ import annotations

import time

from repro.fabric.network import PhaseWallClock


# -- PhaseWallClock ------------------------------------------------------------


def test_phase_wall_clock_serial_accounting():
    clock = PhaseWallClock()
    with clock.track("endorse"):
        time.sleep(0.002)
    with clock.track("endorse"):
        pass
    with clock.track("commit"):
        pass
    seconds = clock.seconds
    assert seconds["endorse"] >= 0.0018
    assert set(seconds) == {"endorse", "commit"}
    assert set(clock.summary()) == {"commit", "endorse"}
    totals: dict[str, float] = {"endorse": 1.0}
    clock.merge_into(totals)
    assert totals["endorse"] >= 1.0018
    assert "commit" in totals
