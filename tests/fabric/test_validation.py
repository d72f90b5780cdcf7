"""Unit tests for the read/write-set conflict schedule and the
:class:`PhaseWallClock` accounting.  End-to-end equivalence of the
memoised validator with the serial loop lives in
``test_validation_differential.py``.
"""

from __future__ import annotations

import time

from repro.fabric.network import PhaseWallClock
from repro.fabric.validation import conflict_schedule


# -- conflict schedule --------------------------------------------------------


def _rw(reads, writes):
    """Build an rwset pair from key lists (values are irrelevant)."""
    return ({k: "v" for k in reads}, {k: "x" for k in writes})


def test_conflict_schedule_empty():
    assert conflict_schedule([]) == ([], [])


def test_conflict_schedule_disjoint_keys_all_independent():
    rwsets = [_rw(["a"], ["a"]), _rw(["b"], ["b"]), _rw(["c"], ["c"])]
    assert conflict_schedule(rwsets) == ([0, 1, 2], [])


def test_conflict_schedule_read_after_write_is_dependent():
    rwsets = [
        _rw(["k"], ["k"]),  # writes k
        _rw(["k"], ["k"]),  # reads k after the write -> dependent
        _rw(["j"], ["j"]),  # untouched key -> independent
    ]
    assert conflict_schedule(rwsets) == ([0, 2], [1])


def test_conflict_schedule_only_earlier_writes_matter():
    # tx0 reads k, tx1 writes k: the read happens "before" the write in
    # block order, so both verdicts against the pre-block state stand.
    rwsets = [_rw(["k"], []), _rw([], ["k"])]
    assert conflict_schedule(rwsets) == ([0, 1], [])


def test_conflict_schedule_blind_writes_are_independent():
    # Write/write on the same key without reads never conflicts under
    # Fabric's MVCC (only reads are version-checked).
    rwsets = [_rw([], ["k"]), _rw([], ["k"]), _rw([], ["k"])]
    assert conflict_schedule(rwsets) == ([0, 1, 2], [])


def test_conflict_schedule_partitions_every_index():
    rwsets = [
        _rw(["a"], ["b"]),
        _rw(["b"], ["c"]),
        _rw(["c", "z"], ["a"]),
        _rw(["z"], ["z"]),
        _rw(["q"], []),
    ]
    independent, dependent = conflict_schedule(rwsets)
    assert sorted(independent + dependent) == list(range(len(rwsets)))
    assert not set(independent) & set(dependent)
    assert dependent == [1, 2]  # read b after write b; read c after write c


def test_conflict_schedule_self_conflict_is_independent():
    # A transaction reading and writing its own key does not depend on
    # itself — only *earlier* writers count.
    assert conflict_schedule([_rw(["k"], ["k"])]) == ([0], [])


def test_conflict_schedule_self_conflict_after_writer_is_dependent():
    rwsets = [_rw([], ["k"]), _rw(["k"], ["k"])]
    assert conflict_schedule(rwsets) == ([0], [1])


def test_conflict_schedule_empty_read_sets_never_depend():
    # Pure writers are MVCC-immune whatever the earlier writes touched.
    rwsets = [
        _rw(["a"], ["a"]),
        _rw([], ["a"]),
        _rw([], ["a", "b"]),
        _rw([], []),
    ]
    assert conflict_schedule(rwsets) == ([0, 1, 2, 3], [])


def test_conflict_schedule_write_write_then_reader():
    # Only the final reader of a write-write pileup goes serial; the
    # blind writers stay independent (the occ rebase worklist is the
    # dependent list, so this keeps rebase work minimal).
    rwsets = [_rw([], ["k"]), _rw([], ["k"]), _rw(["k"], [])]
    assert conflict_schedule(rwsets) == ([0, 1], [2])


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
