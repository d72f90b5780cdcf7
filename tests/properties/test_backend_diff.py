"""Differential property tests: crypto fast path vs. auditable reference.

The fast path exists only for speed — any input where it diverges from
the reference AES is a bug.  Hypothesis drives random keys of all three
AES sizes and random payloads (including empty and non-block-aligned)
through both implementations and demands byte-identical output; the
lane kernel is held to the reference block loop across its chunk
boundary and the 2^128 counter wrap, and the word-level key schedule to
the byte-list one.  The fast path encrypts only, so decryption is
compared at the envelope level.
"""

from hypothesis import given, settings, strategies as st

from repro.crypto import modes
from repro.crypto.aes import _CHUNK_BLOCKS, AES, AESFast, _expand_key
from tests.crypto.test_backend import (
    _reference_keystream,
    aes_built_envelope,
    open_aes_built_envelope,
)

aes_keys = st.sampled_from([16, 24, 32]).flatmap(
    lambda size: st.binary(min_size=size, max_size=size)
)
blocks = st.binary(min_size=16, max_size=16)
payloads = st.binary(min_size=0, max_size=600)
counters = st.integers(min_value=0, max_value=(1 << 128) - 1)


@given(key=aes_keys, block=blocks)
@settings(max_examples=60, deadline=None)
def test_encrypt_block_identical(key, block):
    assert AESFast(key).encrypt_block(block) == AES(key).encrypt_block(block)


@given(key=aes_keys, counter=counters, nblocks=st.integers(min_value=1, max_value=48))
@settings(max_examples=30, deadline=None)
def test_ctr_keystream_identical(key, counter, nblocks):
    """Batched keystream == reference block-at-a-time, incl. wraparound."""
    assert AESFast(key).ctr_keystream(counter, nblocks) == _reference_keystream(
        key, counter, nblocks
    )


@given(
    key=aes_keys,
    counter=st.one_of(counters, st.integers((1 << 128) - 2 * _CHUNK_BLOCKS, (1 << 128) - 1)),
    nblocks=st.integers(min_value=0, max_value=_CHUNK_BLOCKS + 2),
)
@settings(max_examples=15, deadline=None)
def test_ctr_keystream_vector_kernel_identical_to_scalar(key, counter, nblocks):
    """The lane kernel == the reference block loop up to two blocks past a
    chunk, counters near the 2^128 wrap included."""
    assert AESFast(key).ctr_keystream(counter, nblocks) == _reference_keystream(
        key, counter, nblocks
    )


@given(key=aes_keys)
@settings(max_examples=60, deadline=None)
def test_word_key_schedule_matches_expand_key(key):
    """Round key r of the word-level schedule == words 4r..4r+3 of the
    reference byte-list schedule."""
    words = _expand_key(key)
    expected = [
        int.from_bytes(bytes(b for word in words[i : i + 4] for b in word), "big")
        for i in range(0, len(words), 4)
    ]
    assert AESFast(key)._rk == expected


@given(
    master=aes_keys,  # enc subkey is truncated to the master's length
    payload=payloads,
    nonce=st.binary(min_size=16, max_size=16),
)
@settings(max_examples=40, deadline=None)
def test_envelope_identical_to_the_aes_built_one(master, payload, nonce):
    """Same key/nonce/plaintext -> the bytes the reference AES produces."""
    sealed = modes.encrypt(master, payload, nonce=nonce)
    assert sealed == aes_built_envelope(master, payload, nonce)
    assert modes.decrypt(master, sealed) == payload


@given(
    master=aes_keys,
    payload=payloads,
    nonce=st.binary(min_size=16, max_size=16),
)
@settings(max_examples=30, deadline=None)
def test_envelope_roundtrip_crosses_implementations(master, payload, nonce):
    """Seal with the reference, open with the library — and the reverse
    (a random nonce, through the key-schedule cache)."""
    assert modes.decrypt(master, aes_built_envelope(master, payload, nonce)) == payload
    assert open_aes_built_envelope(master, modes.encrypt(master, payload)) == payload
