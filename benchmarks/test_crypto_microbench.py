"""Crypto fast-path microbenchmarks: the library vs. its reference oracle.

Unlike the figure benchmarks (which report *simulated* time), this
module measures real wall-clock: the fast path and the reference
:class:`~repro.crypto.aes.AES` produce the same bytes and differ only
in how fast the Python runs.  Whole-workload host numbers belong to
``benchmarks/e2e``; the legs here are primitives.

Layers measured:

- raw AES block encryption (reference byte-slice rounds vs. the lane
  kernel at one block),
- the CTR keystream of one seal (7 blocks) and of one query's sealed
  body (470 blocks): the lane-parallel kernel vs. the reference
  :class:`AES` one block at a time,
- the authenticated envelope ``modes.encrypt``/``decrypt`` (key-schedule
  cache plus batched CTR) against the same envelope built from the
  reference :class:`AES` one block at a time,
- one 72-byte seal under a fresh key, as every transaction's secret part
  is sealed under its own ``K_i`` (subkeys, key schedule, CTR and MAC
  all cold),
- a 32-entry revocable-view query, cold (every entry encrypted under a
  fresh ``K_V``) vs. warm (served from the entries already encrypted
  under it), with the exact encryption counts,
- RSA keypair generation (incremental sieve).

Results are recorded under ``crypto`` in ``BENCH_micro.json`` at the repo
root so the before/after numbers are checked in alongside the code.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_crypto_microbench.py -v -s
"""

from __future__ import annotations

import secrets
import time

from repro import build_network
from repro.crypto import backend as crypto_backend
from repro.crypto import modes, rsa
from repro.crypto.aes import AES, AESFast
from repro.crypto.hashing import hmac_sha256, sha256
from repro.crypto.symmetric import SymmetricKey
from repro.fabric.config import benchmark_config
from repro.fabric.network import Gateway
from repro.views.encryption_based import EncryptionBasedManager
from repro.views.manager import ViewInvocation
from repro.views.predicates import Everything
from repro.views.types import ViewMode

#: Describes this file's rows in ``BENCH_micro.json``.
_DESCRIPTION = "crypto fast path vs its reference oracle; wall-clock, ratios matter"

#: Floors from the acceptance criteria, asserted with no extra margin so
#: slow CI machines do not flake (measured headroom is large; see JSON).
ENVELOPE_MIN_SPEEDUP = 5.0
#: A per-block loop over the same rounds clears 4-6x; the lane kernel
#: clears about 20x at 7 blocks and over 50x at 470.
CTR_MIN_SPEEDUP = 10.0


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
    """Raw single-block encryption: the lane kernel at one block vs. the
    byte-slice reference."""
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


def test_ctr_keystream(record):
    """CTR keystream of one seal (7 blocks) and one query's ~7.5 KB sealed
    body (470 blocks): the lane kernel vs. the reference block loop."""
    key = secrets.token_bytes(16)
    reference, fast = AES(key), AESFast(key)
    counter = secrets.randbits(128)

    def reference_keystream(n: int) -> bytes:
        return b"".join(
            reference.encrypt_block(((counter + i) % (1 << 128)).to_bytes(16, "big"))
            for i in range(n)
        )

    rows = {}
    for n, repeats in ((7, 200), (470, 3)):
        assert fast.ctr_keystream(counter, n) == reference_keystream(n)
        t_ref = _best_of(lambda: [reference_keystream(n) for _ in range(repeats)], 3)
        t_fast = _best_of(lambda: [fast.ctr_keystream(counter, n) for _ in range(repeats)], 5)
        rows[n] = {
            "reference_us_per_block": round(t_ref / repeats / n * 1e6, 2),
            "fast_us_per_block": round(t_fast / repeats / n * 1e6, 2),
            "speedup": round(t_ref / t_fast, 1),
        }
    record("crypto", _DESCRIPTION, {"ctr_keystream": {
        **{f"{field}_{n}": value for n, row in rows.items() for field, value in row.items()},
        "min_required": CTR_MIN_SPEEDUP,
    }})
    for n, row in rows.items():
        assert row["speedup"] >= CTR_MIN_SPEEDUP, (
            f"CTR speedup at {n} blocks {row['speedup']}x below {CTR_MIN_SPEEDUP}x"
        )


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


def test_seal_72_fresh_key(record):
    """One 72-byte seal under a key never seen before: what each secret
    part costs (the mean write-path seal is about this long)."""
    plaintext = secrets.token_bytes(72)
    n = 200

    def seal_fresh() -> float:
        keys = [SymmetricKey.generate() for _ in range(n)]
        t0 = time.perf_counter()
        for key in keys:
            key.encrypt(plaintext)
        return time.perf_counter() - t0

    t_fresh = min(seal_fresh() for _ in range(5))
    record("crypto", _DESCRIPTION, {"seal_72_fresh_key": {
        "fresh_key_us": round(t_fresh / n * 1e6, 1),
    }})


def test_view_query_cold_vs_warm(record, monkeypatch):
    """A 32-entry ER query: every entry encrypted under a fresh ``K_V``
    (cold) vs. served from the entries already encrypted under it."""
    network = build_network(benchmark_config())
    manager = EncryptionBasedManager(Gateway(network, network.register_user("owner")))
    view = manager.create_view("all", Everything(), ViewMode.REVOCABLE)
    manager.invoke_many(
        [
            ViewInvocation(
                "create_item",
                {"item": f"i{i}", "owner": "W1"},
                {"item": f"i{i}"},
                b"manifest-%d" % i,
            )
            for i in range(32)
        ]
    )
    network.register_user("bob")
    manager.grant_access("all", "bob")
    encrypted = []
    real = SymmetricKey.encrypt

    def counting(self, plaintext):
        encrypted.append(self.material)
        return real(self, plaintext)

    monkeypatch.setattr(SymmetricKey, "encrypt", counting)

    def query() -> int:
        before = len(encrypted)
        manager.query_view("all", "bob")
        return encrypted[before:].count(view.key.material)

    def cold() -> None:
        view.key = SymmetricKey.generate()  # what a revocation does
        assert query() == 32

    query()  # the first query draws the reader's keypair; keep it out of both legs
    t_cold = _best_of(cold, 5)
    t_warm = _best_of(lambda: query(), 5)
    warm_encryptions = query()
    record("crypto", _DESCRIPTION, {"view_query_32": {
        "cold_ms": round(t_cold * 1e3, 3),
        "warm_ms": round(t_warm * 1e3, 3),
        "speedup": round(t_cold / t_warm, 1),
        "cold_entry_encryptions": 32,
        "warm_entry_encryptions": warm_encryptions,
    }})
    assert warm_encryptions == 0
    assert t_warm < t_cold


def test_rsa_keygen(record):
    """Fresh keygen cost: what an identity pays on its first use."""
    t_fresh = _best_of(lambda: rsa._generate_fresh_keypair(1024), 3)
    record("crypto", _DESCRIPTION, {"rsa_keygen_1024": {
        "fresh_ms": round(t_fresh * 1e3, 1),
    }})
