"""Tests for the owner-side view buffer."""

import pytest

from repro.crypto.symmetric import SymmetricKey
from repro.errors import DuplicateViewError, ViewNotFoundError
from repro.views.buffer import ViewBuffer, ViewRecord
from repro.views.predicates import AttributeEquals, Everything
from repro.views.types import ViewMode


def _record(name="v", predicate=None, mode=ViewMode.REVOCABLE):
    return ViewRecord(
        name=name,
        predicate=predicate or Everything(),
        mode=mode,
        key=SymmetricKey.generate(),
    )


def test_add_and_get():
    buffer = ViewBuffer()
    record = _record("v1")
    buffer.add(record)
    assert buffer.get("v1") is record
    assert "v1" in buffer
    assert len(buffer) == 1


def test_duplicate_name_rejected():
    buffer = ViewBuffer()
    buffer.add(_record("v1"))
    with pytest.raises(DuplicateViewError):
        buffer.add(_record("v1"))


def test_missing_view_raises():
    with pytest.raises(ViewNotFoundError):
        ViewBuffer().get("ghost")


def test_names_sorted():
    buffer = ViewBuffer()
    for name in ("zeta", "alpha", "mid"):
        buffer.add(_record(name))
    assert buffer.names() == ["alpha", "mid", "zeta"]
    assert [r.name for r in buffer.all_views()] == ["alpha", "mid", "zeta"]


def test_matching_filters_by_predicate():
    buffer = ViewBuffer()
    buffer.add(_record("w1", AttributeEquals("to", "W1")))
    buffer.add(_record("w2", AttributeEquals("to", "W2")))
    buffer.add(_record("all", Everything()))
    matched = {r.name for r in buffer.matching({"to": "W1"})}
    assert matched == {"w1", "all"}


def test_record_revocability_and_membership():
    revocable = _record(mode=ViewMode.REVOCABLE)
    irrevocable = _record("v2", mode=ViewMode.IRREVOCABLE)
    assert revocable.mode is ViewMode.REVOCABLE
    assert irrevocable.mode is ViewMode.IRREVOCABLE
    assert not revocable.contains("t1")
    revocable.data["t1"] = {"key": b"x"}
    assert revocable.contains("t1")


def test_key_version_starts_at_zero():
    assert _record().key_version == 0
