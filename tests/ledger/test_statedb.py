"""Tests for the versioned state database."""

import pytest

from repro.ledger.statedb import StateDatabase, Version


def test_get_absent_key():
    db = StateDatabase()
    assert db.get("missing") is None
    assert db.get_with_version("missing") is None
    assert db.version_of("missing") is None
    assert "missing" not in db


def test_put_get_with_version():
    db = StateDatabase()
    version = Version(block=3, position=1)
    db.put("k", {"v": 1}, version)
    assert db.get("k") == {"v": 1}
    assert db.version_of("k") == version
    entry = db.get_with_version("k")
    assert entry.value == {"v": 1}
    assert entry.version == version


def test_overwrite_updates_version():
    db = StateDatabase()
    db.put("k", 1, Version(1, 0))
    db.put("k", 2, Version(2, 5))
    assert db.get("k") == 2
    assert db.version_of("k") == Version(2, 5)


def test_versions_are_ordered():
    assert Version(1, 0) < Version(1, 1) < Version(2, 0)


def test_delete():
    db = StateDatabase()
    db.put("k", 1, Version(1, 0))
    db.delete("k")
    assert db.get("k") is None
    db.delete("k")  # idempotent


def test_scan_prefix_sorted():
    db = StateDatabase()
    for key in ["b~2", "a~1", "b~1", "b~10", "c"]:
        db.put(key, key, Version(1, 0))
    results = list(db.scan_prefix("b~"))
    assert [k for k, _ in results] == ["b~1", "b~10", "b~2"]


def test_scan_prefix_empty():
    db = StateDatabase()
    db.put("x", 1, Version(1, 0))
    assert list(db.scan_prefix("y")) == []


def test_keys_sorted():
    db = StateDatabase()
    for key in ["z", "a", "m"]:
        db.put(key, 0, Version(1, 0))
    assert db.keys() == ["a", "m", "z"]


def test_len_and_contains():
    db = StateDatabase()
    db.put("a", 1, Version(1, 0))
    db.put("b", 2, Version(1, 1))
    assert len(db) == 2
    assert "a" in db


def test_size_bytes_counts_values():
    db = StateDatabase()
    db.put("key", b"\x00" * 100, Version(1, 0))
    small = db.size_bytes()
    db.put("key2", b"\x00" * 1000, Version(1, 1))
    assert db.size_bytes() > small + 1000


def test_size_bytes_handles_json_values():
    db = StateDatabase()
    db.put("k", {"nested": [1, 2, 3], "b": b"\x01"}, Version(1, 0))
    assert db.size_bytes() > 0


# -- scan_prefix edge cases, each also checked against a full sort --------


def _scan(db, prefix):
    """``scan_prefix`` as a list, asserted equal to the ``sorted()`` pass
    over the whole key space that the index replaced."""
    scanned = list(db.scan_prefix(prefix))
    state = db.snapshot()
    assert scanned == [
        (key, state[key]) for key in sorted(state) if key.startswith(prefix)
    ]
    assert db.keys() == sorted(state)
    return scanned


def test_scan_empty_prefix_returns_everything_sorted():
    db = StateDatabase()
    for i, key in enumerate(["m", "a", "z", "b"]):
        db.put(key, i, Version(1, i))
    assert [k for k, _ in _scan(db, "")] == ["a", "b", "m", "z"]


def test_scan_prefix_past_all_keys():
    db = StateDatabase()
    for i, key in enumerate(["a~1", "b~1"]):
        db.put(key, i, Version(1, i))
    assert _scan(db, "c") == []
    assert _scan(db, "b~2") == []
    # A prefix sorting before every key but matching none.
    assert _scan(db, "A") == []


def test_scan_prefix_that_is_itself_a_key():
    db = StateDatabase()
    for i, key in enumerate(["seg", "seg~1", "seg~2", "sega", "sef"]):
        db.put(key, key, Version(1, i))
    # Lexicographic: "a" (0x61) sorts before "~" (0x7e).
    assert [k for k, _ in _scan(db, "seg")] == [
        "seg",
        "sega",
        "seg~1",
        "seg~2",
    ]
    assert [k for k, _ in _scan(db, "seg~")] == ["seg~1", "seg~2"]


def test_scan_sees_writes_interleaved_between_scans():
    db = StateDatabase()
    db.put("p~1", 1, Version(1, 0))
    assert [k for k, _ in _scan(db, "p~")] == ["p~1"]
    db.put("p~0", 0, Version(1, 1))  # insert before the existing range
    db.put("p~2", 2, Version(1, 2))  # ... and after it
    db.put("p~1", 11, Version(1, 3))  # update in place
    assert _scan(db, "p~") == [("p~0", 0), ("p~1", 11), ("p~2", 2)]
    db.delete("p~0")
    assert [k for k, _ in _scan(db, "p~")] == ["p~1", "p~2"]


def test_scan_during_iteration_sees_consistent_snapshot():
    """Writes made while consuming a scan do not corrupt the iteration."""
    db = StateDatabase()
    for i in range(4):
        db.put(f"q~{i}", i, Version(1, i))
    seen = []
    for key, value in db.scan_prefix("q~"):  # live generator, not a list
        seen.append(key)
        db.put(f"r~{key}", value, Version(2, len(seen)))
    assert seen == [f"q~{i}" for i in range(4)]
    assert len(list(db.scan_prefix("r~"))) == 4


def test_snapshot_is_plain_copy():
    db = StateDatabase()
    db.put("k", [1, 2], Version(1, 0))
    snap = db.snapshot()
    assert snap == {"k": [1, 2]}
    snap["k"].append(3)  # mutating the snapshot's value is visible (shallow)…
    snap["new"] = 1  # …but new keys are not written back
    assert "new" not in db
