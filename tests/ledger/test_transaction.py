"""Tests for transactions: identity, serialization, digests."""

import re
from dataclasses import replace
from pathlib import Path

import repro
from repro.crypto.hashing import sha256
from repro.crypto.merkle import leaf_hash
from repro.ledger.transaction import Transaction, fresh_tid


def test_fresh_tids_are_unique_and_prefixed():
    tids = {fresh_tid() for _ in range(100)}
    assert len(tids) == 100
    assert all(tid.startswith("tx-") for tid in tids)
    assert fresh_tid("xid").startswith("xid-")


def test_serialize_roundtrip():
    tx = Transaction(
        tid="tx-1",
        kind="invoke",
        nonsecret={"to": "Warehouse 1", "n": 3},
        concealed=b"\x01\x02",
        salt=b"\x03",
        creator="alice",
    )
    assert Transaction.deserialize(tx.serialize()) == tx


def test_serialization_is_canonical():
    a = Transaction(tid="t", nonsecret={"a": 1, "b": 2})
    b = Transaction(tid="t", nonsecret={"b": 2, "a": 1})
    assert a.serialize() == b.serialize()
    assert a.digest() == b.digest()


def test_digest_changes_with_any_field():
    base = Transaction(tid="t", nonsecret={"x": 1}, concealed=b"c")
    assert base.digest() != Transaction(tid="u", nonsecret={"x": 1}, concealed=b"c").digest()
    assert base.digest() != Transaction(tid="t", nonsecret={"x": 2}, concealed=b"c").digest()
    assert base.digest() != Transaction(tid="t", nonsecret={"x": 1}, concealed=b"d").digest()


def test_size_bytes_grows_with_payload():
    small = Transaction(tid="t", concealed=b"")
    big = Transaction(tid="t", concealed=b"\x00" * 1000)
    assert big.size_bytes > small.size_bytes + 1000  # hex doubles bytes


def test_transactions_default_empty_parts():
    tx = Transaction(tid="t")
    assert tx.concealed == b""
    assert tx.salt == b""
    assert tx.kind == "invoke"


# -- immutability: what makes the retained size and leaf digest sound ---------


def test_derived_copies_start_without_the_originals_encoding():
    tx = Transaction(tid="t", nonsecret={"a": 1}, concealed=b"c")
    tx.size_bytes, tx.leaf_digest  # the original has encoded itself
    for copy in (
        replace(tx, nonsecret={"a": 1, "b": 2}),
        Transaction.deserialize(tx.serialize()),
    ):
        # ``replace`` and friends run ``__init__``: a new object with its
        # own attribute storage, so nothing derived rides along.
        assert not hasattr(copy, "_encoded")
        assert vars(copy) is not vars(tx)
        assert copy.size_bytes == len(copy.serialize())
        assert copy.leaf_digest == leaf_hash(copy.serialize())
    assert replace(tx, nonsecret={"a": 1, "b": 2}).size_bytes != tx.size_bytes


def test_digest_is_the_hash_of_the_raw_bytes_not_the_merkle_leaf():
    tx = Transaction(tid="t", nonsecret={"a": 1})
    assert tx.digest() == sha256(tx.serialize())
    assert tx.leaf_digest == leaf_hash(tx.serialize()) != tx.digest()


def test_no_source_mutates_a_transactions_nonsecret_in_place():
    """The encoding is computed once, so ``tx.nonsecret`` must never be
    written through after construction (see the class docstring)."""
    mutation = re.compile(
        r"\.nonsecret\[[^\]]*\]\s*(?:=[^=]|[-+|*]=)"
        r"|\.nonsecret\.(?:update|pop|popitem|setdefault|clear)\("
        r"|del\s+[\w.]*\.nonsecret\["
    )
    offenders = [
        f"{path}:{number}: {line.strip()}"
        for path in Path(repro.__file__).parent.rglob("*.py")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if mutation.search(line)
    ]
    assert offenders == []
