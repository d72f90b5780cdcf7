"""The AES key-schedule cache in front of :class:`~repro.crypto.aes.AESFast`.

The paper's protocols reuse a few master keys across many operations:
every reader decrypts view entries under the same view key ``K_V``, and
the envelope derives its subkeys from the same master key on every
call.  :func:`aes_for_key` therefore keeps expanded key
schedules in an LRU, so :mod:`repro.crypto.modes` asks *here* for a
cipher instead of constructing one per message.

:class:`~repro.crypto.aes.AES` — the byte-at-a-time, derivation-first
implementation — is not reachable from here: it is the oracle that
``tests/crypto/test_backend.py`` and ``tests/properties`` compare the
lane-parallel fast path against, block by block and stream by stream.
A cached :class:`~repro.crypto.aes.AESFast` is its round keys alone:
``rounds + 1`` 128-bit ints.
"""

from __future__ import annotations

from functools import lru_cache

from repro.crypto.aes import AESFast

#: Expanded key schedules kept (keys are 16-48 bytes each, so even a
#: full cache is a few hundred KiB).
KEY_SCHEDULE_CACHE_SIZE = 4096


@lru_cache(maxsize=KEY_SCHEDULE_CACHE_SIZE)
def _cached_cipher(key: bytes) -> AESFast:
    return AESFast(key)


def aes_for_key(key: bytes) -> AESFast:
    """The cipher for ``key``, its key schedule expanded at most once
    while it stays in the LRU."""
    return _cached_cipher(bytes(key))


def clear_caches() -> None:
    """Drop all cached key schedules (used by tests and benchmarks)."""
    _cached_cipher.cache_clear()
