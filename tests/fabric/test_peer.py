"""Tests for peer endorsement and validate-and-commit (MVCC, policy)."""

import pytest

from repro.errors import (
    BlockValidationError,
    ChaincodeError,
    TransactionNotFoundError,
)
from repro.fabric.chaincode import Chaincode, ChaincodeRegistry
from repro.fabric.endorser import Proposal, assemble_transaction
from repro.fabric.identity import MembershipServiceProvider
from repro.fabric.peer import Peer, ValidationCode
from repro.fabric.validation import BlockValidationMemo
from repro.ledger.block import Block


class KvContract(Chaincode):
    name = "kv"

    def fn_set(self, ctx, key, value):
        ctx.put_state(key, value)
        return value

    def fn_get(self, ctx, key):
        return ctx.get_state(key)

    def fn_incr(self, ctx, key):
        current = ctx.get_state(key) or 0
        ctx.put_state(key, current + 1)
        return current + 1


@pytest.fixture(scope="module")
def msp():
    provider = MembershipServiceProvider(key_bits=1024)
    provider.register("peer-a")
    provider.register("peer-b")
    return provider


def _peer(msp, peer_id="peer-a", real_signatures=False):
    registry = ChaincodeRegistry()
    registry.install(KvContract())
    return Peer(
        peer_id=peer_id,
        identity=msp.get(peer_id),
        registry=registry,
        real_signatures=real_signatures,
    )


def _commit(peer, txs, number=None):
    block = Block.build(
        number=number if number is not None else peer.chain.height,
        previous_hash=peer.chain.tip_hash,
        transactions=txs,
        state_root=b"\x00" * 32,
        timestamp=0.0,
    )
    return peer.validate_and_commit(
        block,
        {peer.peer_id: peer.identity.public_key},
        {peer.peer_id: peer.mac_secret},
        policy=1,
    )


def test_endorse_returns_rwsets(msp):
    peer = _peer(msp)
    proposal = Proposal(chaincode="kv", fn="set", args={"key": "k", "value": 7})
    response = peer.endorse(proposal)
    assert response.write_set == {"kv~k": 7}
    assert response.response == 7
    assert response.read_set == {}


def test_endorse_unknown_chaincode_raises(msp):
    peer = _peer(msp)
    with pytest.raises(ChaincodeError):
        peer.endorse(Proposal(chaincode="ghost", fn="x"))


def test_commit_applies_valid_writes(msp):
    peer = _peer(msp)
    proposal = Proposal(chaincode="kv", fn="set", args={"key": "k", "value": 7})
    tx = assemble_transaction(proposal, [peer.endorse(proposal)])
    result = _commit(peer, [tx])
    assert result.codes[tx.tid] is ValidationCode.VALID
    assert peer.statedb.get("kv~k") == 7
    assert peer.chain.height == 1


def test_mvcc_conflict_invalidates_second_tx(msp):
    """Two increments endorsed against the same snapshot: the second is
    invalidated at commit (classic Fabric read-conflict)."""
    peer = _peer(msp)
    p1 = Proposal(chaincode="kv", fn="incr", args={"key": "n"})
    p2 = Proposal(chaincode="kv", fn="incr", args={"key": "n"})
    tx1 = assemble_transaction(p1, [peer.endorse(p1)])
    tx2 = assemble_transaction(p2, [peer.endorse(p2)])
    result = _commit(peer, [tx1, tx2])
    assert result.codes[tx1.tid] is ValidationCode.VALID
    assert result.codes[tx2.tid] is ValidationCode.MVCC_CONFLICT
    assert result.valid_count == 1
    assert result.invalid_count == 1
    assert peer.statedb.get("kv~n") == 1  # second write not applied
    assert peer.validation_codes == result.codes


def test_sequential_blocks_no_conflict(msp):
    peer = _peer(msp)
    for expected in (1, 2, 3):
        proposal = Proposal(chaincode="kv", fn="incr", args={"key": "n"})
        tx = assemble_transaction(proposal, [peer.endorse(proposal)])
        result = _commit(peer, [tx])
        assert result.codes[tx.tid] is ValidationCode.VALID
        assert peer.statedb.get("kv~n") == expected


def test_endorsement_policy_failure_with_forged_signature(msp):
    peer = _peer(msp)
    proposal = Proposal(chaincode="kv", fn="set", args={"key": "k", "value": 1})
    response = peer.endorse(proposal)
    forged = type(response)(
        peer_id=response.peer_id,
        read_set=response.read_set,
        write_set=response.write_set,
        response=response.response,
        signature=b"\x00" * 32,
    )
    tx = assemble_transaction(proposal, [forged])
    result = _commit(peer, [tx])
    assert result.codes[tx.tid] is ValidationCode.ENDORSEMENT_POLICY_FAILURE
    assert peer.statedb.get("kv~k") is None


def test_endorsement_from_unknown_peer_rejected(msp):
    peer = _peer(msp)
    proposal = Proposal(chaincode="kv", fn="set", args={"key": "k", "value": 1})
    response = peer.endorse(proposal)
    tx = assemble_transaction(proposal, [response])
    block = Block.build(0, peer.chain.tip_hash, [tx], b"\x00" * 32, 0.0)
    # Validation map has no entry for the endorsing peer.
    result = peer.validate_and_commit(block, {}, {}, policy=1)
    assert result.codes[tx.tid] is ValidationCode.ENDORSEMENT_POLICY_FAILURE


def test_real_rsa_signatures_verify(msp):
    peer = _peer(msp, real_signatures=True)
    proposal = Proposal(chaincode="kv", fn="set", args={"key": "k", "value": 9})
    tx = assemble_transaction(proposal, [peer.endorse(proposal)])
    result = _commit(peer, [tx])
    assert result.codes[tx.tid] is ValidationCode.VALID


def test_tampered_writes_break_real_signature(msp):
    peer = _peer(msp, real_signatures=True)
    proposal = Proposal(chaincode="kv", fn="set", args={"key": "k", "value": 9})
    response = peer.endorse(proposal)
    # A malicious client rewrites the write set after endorsement.
    tampered = type(response)(
        peer_id=response.peer_id,
        read_set=response.read_set,
        write_set={"kv~k": 9_999_999},
        response=response.response,
        signature=response.signature,
    )
    tx = assemble_transaction(proposal, [tampered])
    result = _commit(peer, [tx])
    assert result.codes[tx.tid] is ValidationCode.ENDORSEMENT_POLICY_FAILURE


def test_state_root_changes_after_commit(msp):
    peer = _peer(msp)
    root_before = peer.current_state_root()
    proposal = Proposal(chaincode="kv", fn="set", args={"key": "k", "value": 1})
    tx = assemble_transaction(proposal, [peer.endorse(proposal)])
    _commit(peer, [tx])
    assert peer.current_state_root() != root_before


def _set_tx(peer, key, value):
    proposal = Proposal(chaincode="kv", fn="set", args={"key": key, "value": value})
    return assemble_transaction(proposal, [peer.endorse(proposal)])


def _ledger_view(peer):
    return (
        peer.chain.height,
        peer.chain.tip_hash,
        peer.statedb.entries(),
        peer.current_state_root(),
        dict(peer.validation_codes),
    )


@pytest.mark.parametrize("defect", ["unlinked", "misnumbered", "duplicate_tid"])
@pytest.mark.parametrize("shared_memo", [False, True])
def test_rejected_block_leaves_no_trace(msp, defect, shared_memo):
    """A block the chain refuses raises before any write: height, state
    entries, state root and validation codes stay what they were, and
    the refused block's other transactions stay unknown to the chain."""
    peer = _peer(msp)
    committed = _set_tx(peer, "k", 1)
    _commit(peer, [committed])
    before = _ledger_view(peer)
    fresh = _set_tx(peer, "k", 2)
    txs = [fresh, committed] if defect == "duplicate_tid" else [fresh]
    block = Block.build(
        number=peer.chain.height + (defect == "misnumbered"),
        previous_hash=b"\x13" * 32 if defect == "unlinked" else peer.chain.tip_hash,
        transactions=txs,
        state_root=b"\x00" * 32,
        timestamp=0.0,
    )
    with pytest.raises(BlockValidationError):
        peer.validate_and_commit(
            block,
            {},
            {peer.peer_id: peer.mac_secret},
            policy=1,
            memo=BlockValidationMemo() if shared_memo else None,
        )
    assert _ledger_view(peer) == before
    assert peer.statedb.get("kv~k") == 1
    with pytest.raises(TransactionNotFoundError):
        peer.chain.locate(fresh.tid)


@pytest.mark.parametrize("real_signatures", [False, True])
def test_one_peer_endorsing_twice_does_not_meet_policy_two(msp, real_signatures):
    """The policy counts distinct endorsing peers: a response listed
    twice is one endorsement, two peers' responses are two."""
    peer = _peer(msp, real_signatures=real_signatures)
    other = _peer(msp, "peer-b", real_signatures)
    keys = {p.peer_id: p.identity.public_key for p in (peer, other)}
    secrets = {p.peer_id: p.mac_secret for p in (peer, other)}
    doubled = Proposal(chaincode="kv", fn="set", args={"key": "k", "value": 1})
    response = peer.endorse(doubled)
    pair = Proposal(chaincode="kv", fn="set", args={"key": "j", "value": 2})
    txs = [
        assemble_transaction(doubled, [response, response]),
        assemble_transaction(pair, [peer.endorse(pair), other.endorse(pair)]),
    ]
    block = Block.build(0, peer.chain.tip_hash, txs, b"\x00" * 32, 0.0)
    result = peer.validate_and_commit(block, keys, secrets, policy=2)
    assert result.codes == {
        txs[0].tid: ValidationCode.ENDORSEMENT_POLICY_FAILURE,
        txs[1].tid: ValidationCode.VALID,
    }
    assert peer.statedb.snapshot() == {"kv~j": 2}
