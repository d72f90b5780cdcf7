"""Differential property tests: ledger fast path vs. reference.

The ledger fast path (incremental state digest, indexed prefix scans,
incremental audit verifier) exists only for speed — any input where it
diverges from the reference implementations is a bug.
Hypothesis drives randomized operation sequences through both sides
and demands byte-identical roots, proofs, scan results, and audit
verdicts.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import salted_hash
from repro.errors import MerkleProofError
from repro.ledger.block import Block
from repro.ledger.chain import Blockchain
from repro.ledger.merkle_state import (
    IncrementalStateDigest,
    StateDigest,
    state_root,
)
from repro.ledger.statedb import StateDatabase, Version
from repro.ledger.transaction import Transaction
from repro.views.manager import QueryResult
from repro.views.predicates import AttributeEquals
from repro.views.types import Concealment
from repro.views.verification import ViewVerifier

# A small key alphabet makes collisions (updates, deletes of present
# keys, prefix overlaps) likely within few operations.
keys = st.sampled_from(
    [f"{p}~{i}" for p in ("aa", "ab", "b") for i in range(4)] + ["aa", "z"]
)
values = st.one_of(
    st.binary(max_size=12),
    st.integers(-5, 5),
    st.dictionaries(st.sampled_from(["x", "y"]), st.integers(0, 3), max_size=2),
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("delete"), keys),
    ),
    max_size=40,
)
# Operation sequences arrive in "blocks": the digest is only consulted
# at block boundaries, exactly like the commit path.
blocks_of_ops = st.lists(ops, min_size=1, max_size=6)


def _apply(db: StateDatabase, batch, counter: int) -> int:
    for op in batch:
        if op[0] == "put":
            db.put(op[1], op[2], Version(block=1, position=counter))
        else:
            db.delete(op[1])
        counter += 1
    return counter


@given(batches=blocks_of_ops)
@settings(max_examples=60, deadline=None)
def test_incremental_digest_roots_and_proofs_identical(batches):
    """Roots and audit paths match the full rebuild after every block."""
    db = StateDatabase()
    digest = IncrementalStateDigest(db)
    counter = 0
    for batch in batches:
        counter = _apply(db, batch, counter)
        reference = StateDigest(db)
        assert digest.root() == reference.root()
        for key in db.keys():
            assert digest.prove(key) == reference.prove(key)


@given(batches=blocks_of_ops)
@settings(max_examples=40, deadline=None)
def test_digest_subscribing_midlife_matches(batches):
    """A digest attached to a non-empty database is coherent from there on."""
    db = StateDatabase()
    counter = _apply(db, batches[0], 0)
    digest = IncrementalStateDigest(db)  # misses the first batch's writes
    for batch in batches[1:]:
        counter = _apply(db, batch, counter)
    assert digest.root() == state_root(db)


# Finer-grained than blocks: roots and proofs are asked for at arbitrary
# points of the write stream, which is where a digest that folds writes
# lazily could go stale.
stream_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("overwrite"), keys, st.lists(values, min_size=2, max_size=4)),
        st.tuples(st.just("delete"), keys),
        st.tuples(st.just("put-then-delete"), keys, values),
        st.tuples(st.just("root")),
        st.tuples(st.just("prove"), keys),
    ),
    max_size=60,
)


@given(stream=stream_ops)
@settings(max_examples=120, deadline=None)
def test_lazy_digest_matches_reference_at_any_point_of_the_write_stream(stream):
    db = StateDatabase()
    digest = IncrementalStateDigest(db)
    for position, op in enumerate(stream):
        version = Version(block=1, position=position)
        if op[0] == "put":
            db.put(op[1], op[2], version)
        elif op[0] == "overwrite":
            for value in op[2]:
                db.put(op[1], value, version)
        elif op[0] == "delete":
            db.delete(op[1])
        elif op[0] == "put-then-delete":
            db.put(op[1], op[2], version)
            db.delete(op[1])
        elif op[0] == "root":
            assert digest.root() == StateDigest(db).root()
        else:
            # No root() first: the proof itself must fold what was
            # written since the last flush, this key included.
            reference = StateDigest(db)
            if op[1] in db:
                proof = digest.prove(op[1])
                assert proof == reference.prove(op[1])
                assert digest.verify(op[1], db.get(op[1]), proof, reference.root())
            else:
                with pytest.raises(MerkleProofError):
                    digest.prove(op[1])
    assert digest.root() == state_root(db)


@given(
    batches=blocks_of_ops,
    prefixes=st.lists(
        st.sampled_from(["", "a", "aa", "aa~", "aa~1", "b~", "z", "zz"]),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_scan_and_keys_identical_to_a_full_sort(batches, prefixes):
    """Indexed scans return exactly what a ``sorted()`` pass returns."""
    db = StateDatabase()
    counter = 0
    for batch in batches:
        counter = _apply(db, batch, counter)
        state = db.snapshot()
        assert db.keys() == sorted(state)
        for prefix in prefixes:
            assert list(db.scan_prefix(prefix)) == [
                (key, state[key]) for key in sorted(state) if key.startswith(prefix)
            ]


# --- audit verdict equivalence ------------------------------------------------

owners = st.sampled_from(["alice", "bob", "carol"])
tx_batches = st.lists(
    st.lists(owners, min_size=1, max_size=5), min_size=1, max_size=8
)


def _build_chain(batch_owners) -> tuple[Blockchain, list[Transaction]]:
    chain = Blockchain("prop-audit")
    txs: list[Transaction] = []
    tid = 0
    for number, owners_in_block in enumerate(batch_owners):
        block_txs = []
        for owner in owners_in_block:
            tid += 1
            salt = f"s{tid}".encode()
            block_txs.append(
                Transaction(
                    tid=f"p-{tid:04d}",
                    kind="invoke",
                    nonsecret={"public": {"owner": owner}},
                    concealed=salted_hash(f"sec{tid}".encode(), salt),
                    salt=salt,
                )
            )
        chain.append(
            Block.build(
                number=number,
                previous_hash=chain.tip_hash,
                transactions=block_txs,
                state_root=b"\x00" * 32,
                timestamp=float(number),
            )
        )
        txs.extend(block_txs)
    return chain, txs


def _gateway(chain: Blockchain) -> SimpleNamespace:
    return SimpleNamespace(
        network=SimpleNamespace(reference_peer=SimpleNamespace(chain=chain))
    )


@given(
    batch_owners=tx_batches,
    omit=st.integers(min_value=0, max_value=10),
    corrupt=st.integers(min_value=0, max_value=10),
    horizon=st.one_of(st.none(), st.floats(min_value=-1.0, max_value=9.0)),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_audit_verdicts_identical(batch_owners, omit, corrupt, horizon, data):
    """Incremental verifier == fresh reference verifier, on every report
    field that is a verdict (ok/checked/violations/missing), across
    repeated audits of a growing chain — including dishonest servings
    (omissions, corrupted secrets) and ``upto_time`` horizons.
    """
    chain = Blockchain("prop-audit")
    incremental = ViewVerifier(_gateway(chain), incremental=True)
    predicate = AttributeEquals("owner", "alice")

    full_chain, _ = _build_chain(batch_owners)
    cut = data.draw(
        st.integers(min_value=1, max_value=len(batch_owners)), label="cut"
    )
    for stage_end in (cut, len(batch_owners)):
        while chain.height < stage_end:
            chain.append(full_chain.block(chain.height))
        matching = [
            tx
            for tx in chain.transactions()
            if tx.nonsecret["public"]["owner"] == "alice"
        ]
        served = {tx.tid: f"sec{int(tx.tid.split('-')[1])}".encode() for tx in matching}
        if served and omit:
            dropped = sorted(served)[omit % len(served)]
            del served[dropped]
        if served and corrupt:
            served[sorted(served)[corrupt % len(served)]] = b"tampered"
        result = QueryResult(
            view="w", key_version=0, secrets=served, tx_keys={}
        )
        reference = ViewVerifier(_gateway(chain))  # fresh: rescans everything
        ref_c = reference.verify_completeness(
            "w", predicate, set(served), upto_time=horizon
        )
        inc_c = incremental.verify_completeness(
            "w", predicate, set(served), upto_time=horizon
        )
        assert (ref_c.ok, ref_c.checked, ref_c.missing) == (
            inc_c.ok,
            inc_c.checked,
            inc_c.missing,
        )
        ref_s = reference.verify_soundness("w", predicate, result, Concealment.HASH)
        inc_s = incremental.verify_soundness("w", predicate, result, Concealment.HASH)
        assert (ref_s.ok, ref_s.checked, ref_s.violations) == (
            inc_s.ok,
            inc_s.checked,
            inc_s.violations,
        )


@given(batch_owners=tx_batches)
@settings(max_examples=30, deadline=None)
def test_repeat_audit_costs_only_new_work(batch_owners):
    """Re-auditing an unchanged chain costs an incremental verifier
    zero ledger accesses; the verdict still matches the reference."""
    chain, _ = _build_chain(batch_owners)
    predicate = AttributeEquals("owner", "alice")
    served = {
        tx.tid
        for tx in chain.transactions()
        if tx.nonsecret["public"]["owner"] == "alice"
    }
    verifier = ViewVerifier(_gateway(chain), incremental=True)
    first = verifier.verify_completeness("w", predicate, served)
    again = verifier.verify_completeness("w", predicate, served)
    assert first.ok and again.ok
    assert first.ledger_accesses == chain.height
    assert again.ledger_accesses == 0
    assert again.checked == first.checked
