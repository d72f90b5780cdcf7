"""Crypto fast-path microbenchmarks: the library vs. its reference oracle.

Unlike the figure benchmarks (which report *simulated* time), this
module measures real wall-clock: the fast path and the reference
:class:`~repro.crypto.aes.AES` produce the same bytes and differ only
in how fast the Python runs.  Whole-workload host numbers belong to
``benchmarks/e2e``; the legs here are primitives.

Layers measured:

- raw AES block encryption (reference byte-slice rounds vs. T-tables),
- the authenticated envelope ``modes.encrypt``/``decrypt`` (key-schedule
  cache plus batched CTR) against the same envelope built from the
  reference :class:`AES` one block at a time,
- RSA keypair generation (incremental sieve).

Results are recorded under ``crypto`` in ``BENCH_micro.json`` at the repo
root so the before/after numbers are checked in alongside the code.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_crypto_microbench.py -v -s
"""

from __future__ import annotations

import secrets
import time

from repro.crypto import backend as crypto_backend
from repro.crypto import modes, rsa
from repro.crypto.aes import AES, AESFast
from repro.crypto.hashing import hmac_sha256, sha256

#: Describes this file's rows in ``BENCH_micro.json``.
_DESCRIPTION = "crypto fast path vs its reference oracle; wall-clock, ratios matter"

#: Floors from the acceptance criteria, asserted with no extra margin so
#: slow CI machines do not flake (measured headroom is large; see JSON).
ENVELOPE_MIN_SPEEDUP = 5.0


def _best_of(fn, repeats: int) -> float:
    """Best wall-clock of ``repeats`` calls, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _fresh_caches() -> None:
    crypto_backend.clear_caches()
    modes._derive_subkeys.cache_clear()


def test_aes_block_transform(record):
    """Raw single-block encryption: T-tables vs. byte-slice reference."""
    key = secrets.token_bytes(16)
    block = secrets.token_bytes(16)
    reference, fast = AES(key), AESFast(key)
    assert fast.encrypt_block(block) == reference.encrypt_block(block)

    n = 50
    t_ref = _best_of(lambda: [reference.encrypt_block(block) for _ in range(n)], 3)
    t_fast = _best_of(lambda: [fast.encrypt_block(block) for _ in range(n)], 3)
    record("crypto", _DESCRIPTION, {"aes_block": {
        "reference_us_per_block": round(t_ref / n * 1e6, 2),
        "fast_us_per_block": round(t_fast / n * 1e6, 2),
        "speedup": round(t_ref / t_fast, 1),
    }})
    assert t_fast < t_ref


def _oracle_seal(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """The envelope from the reference AES alone: a fresh key schedule
    and a block-at-a-time CTR loop, as the seed sealed every message."""
    enc_key = sha256(b"ledgerview/enc" + key)[: len(key)]
    ciphertext = modes.ctr_xor_reference(enc_key, nonce, plaintext)
    mac_key = sha256(b"ledgerview/mac" + key)
    return nonce + ciphertext + hmac_sha256(mac_key, nonce + ciphertext)


def _oracle_open(key: bytes, sealed: bytes) -> bytes:
    nonce, ciphertext, tag = sealed[:16], sealed[16:-32], sealed[-32:]
    mac_key = sha256(b"ledgerview/mac" + key)
    assert hmac_sha256(mac_key, nonce + ciphertext) == tag
    enc_key = sha256(b"ledgerview/enc" + key)[: len(key)]
    return modes.ctr_xor_reference(enc_key, nonce, ciphertext)


def test_envelope_seal_open_speedup(record):
    """AES-CTR+HMAC envelope on a 4 KiB record: must clear 5x."""
    key = secrets.token_bytes(32)
    plaintext = secrets.token_bytes(4096)
    nonce = secrets.token_bytes(16)

    def seal_open():
        sealed = modes.encrypt(key, plaintext, nonce=nonce)
        assert modes.decrypt(key, sealed) == plaintext
        return sealed

    def oracle_seal_open():
        sealed = _oracle_seal(key, plaintext, nonce)
        assert _oracle_open(key, sealed) == plaintext
        return sealed

    assert seal_open() == oracle_seal_open()  # same bytes on the wire
    t_ref = _best_of(oracle_seal_open, 3)
    _fresh_caches()
    seal_open()  # warm the key-schedule and subkey caches once
    t_fast = _best_of(seal_open, 5)

    speedup = t_ref / t_fast
    record("crypto", _DESCRIPTION, {"envelope_4k": {
        "reference_ms": round(t_ref * 1e3, 3),
        "fast_ms": round(t_fast * 1e3, 3),
        "speedup": round(speedup, 1),
        "min_required": ENVELOPE_MIN_SPEEDUP,
    }})
    assert speedup >= ENVELOPE_MIN_SPEEDUP, (
        f"envelope speedup {speedup:.1f}x below {ENVELOPE_MIN_SPEEDUP}x"
    )


def test_rsa_keygen(record):
    """Fresh keygen cost: what an identity pays on its first use."""
    t_fresh = _best_of(lambda: rsa._generate_fresh_keypair(1024), 3)
    record("crypto", _DESCRIPTION, {"rsa_keygen_1024": {
        "fresh_ms": round(t_fresh * 1e3, 1),
    }})
