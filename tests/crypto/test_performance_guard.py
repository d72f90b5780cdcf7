"""Coarse performance guards on the crypto hot paths.

These are *regression tripwires*, not benchmarks (those live in
``benchmarks/test_crypto_microbench.py``): thresholds are set an order
of magnitude above the measured numbers so they never flake on a slow
CI machine, but still catch an accidental reintroduction of quadratic
behaviour (e.g. per-byte XOR loops or per-call key re-expansion) in the
envelope path.
"""

import secrets
import time

from repro.crypto import modes


def _seal_open_seconds(key: bytes, size: int) -> float:
    payload = secrets.token_bytes(size)
    t0 = time.perf_counter()
    sealed = modes.encrypt(key, payload)
    assert modes.decrypt(key, sealed) == payload
    return time.perf_counter() - t0


def test_large_envelope_wall_clock_bound():
    """Sealing+opening 128 KiB must finish in seconds, not minutes.

    Under the seed implementation this took ~25 ms *per block*
    (8192 blocks -> minutes); the fast path does it in milliseconds.
    A 10 s bound leaves two orders of magnitude of slack.
    """
    elapsed = _seal_open_seconds(secrets.token_bytes(32), 128 * 1024)
    assert elapsed < 10.0, f"128KiB seal+open took {elapsed:.1f}s"


def test_envelope_scales_roughly_linearly():
    """8x the payload must cost far less than 64x the time (no O(n^2)).

    Both sizes stay above the numpy dispatch threshold so the same code
    path is measured; the 24x allowance absorbs timer noise and cache
    effects while still rejecting quadratic scaling.
    """
    key = secrets.token_bytes(32)
    _seal_open_seconds(key, 16 * 1024)  # warm caches + numpy
    small = min(_seal_open_seconds(key, 16 * 1024) for _ in range(3))
    large = min(_seal_open_seconds(key, 128 * 1024) for _ in range(3))
    assert large < small * 24 + 0.05, (
        f"16KiB: {small * 1e3:.2f}ms, 128KiB: {large * 1e3:.2f}ms"
    )
