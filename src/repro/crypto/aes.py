"""AES block cipher (FIPS-197) implemented from scratch in pure Python.

Supports AES-128, AES-192 and AES-256.  Two implementations give the
same outputs:

- :class:`AES` — the auditable **reference** implementation: byte-wise
  state, S-box and GF(2^8) tables built programmatically from their
  mathematical definitions, and the byte-list key schedule
  :func:`_expand_key`.  It favours clarity over speed.
- :class:`AESFast` — the **fast path**, encryption only (CTR decrypts
  by encrypting counters).  Its key schedule runs on 32-bit words and
  keeps each round key as one 128-bit int; its one kernel holds all the
  counter blocks of a message as one big int and runs every round over
  all of them at once (SubBytes as a ``bytes.translate`` through the
  reference S-box, ShiftRows and MixColumns as masked shifts), with no
  lookup table but the S-box.  Equivalence is pinned by the
  FIPS-197 Appendix C vectors and by differential tests against
  :class:`AES` (``tests/crypto/test_backend.py``, ``tests/properties``).

The library runs :class:`AESFast` (behind the key-schedule cache in
:mod:`repro.crypto.backend`); :class:`AES` is the oracle.  Modes of
operation are in :mod:`repro.crypto.modes`.
"""

from __future__ import annotations

import struct
from functools import lru_cache

BLOCK_SIZE = 16

_VALID_KEY_SIZES = (16, 24, 32)

# --- S-box construction -------------------------------------------------
# Built programmatically from the GF(2^8) multiplicative inverse and the
# FIPS-197 affine transform, rather than pasted as a 256-entry table, so
# the derivation is auditable.


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    # Multiplicative inverses via exponentiation tables over generator 3.
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    exp[255] = exp[0]

    def inverse(v: int) -> int:
        if v == 0:
            return 0
        return exp[255 - log[v]]

    sbox = bytearray(256)
    for value in range(256):
        inv = inverse(value)
        # Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        transformed = inv
        for shift in range(1, 5):
            transformed ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        sbox[value] = transformed ^ 0x63
    inv_sbox = bytearray(256)
    for value, substituted in enumerate(sbox):
        inv_sbox[substituted] = value
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]

# Precomputed GF multiplication tables for MixColumns / InvMixColumns.
_MUL2 = bytes(_gf_mul(i, 2) for i in range(256))
_MUL3 = bytes(_gf_mul(i, 3) for i in range(256))
_MUL9 = bytes(_gf_mul(i, 9) for i in range(256))
_MUL11 = bytes(_gf_mul(i, 11) for i in range(256))
_MUL13 = bytes(_gf_mul(i, 13) for i in range(256))
_MUL14 = bytes(_gf_mul(i, 14) for i in range(256))


def _expand_key(key: bytes) -> list[list[int]]:
    """Expand the cipher key into the round-key schedule (FIPS-197 §5.2).

    Returns a list of 4-byte words (as lists of ints); 4 words per round
    key, ``rounds + 1`` round keys in total.
    """
    nk = len(key) // 4
    rounds = {4: 10, 6: 12, 8: 14}[nk]
    words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        word = list(words[i - 1])
        if i % nk == 0:
            word = word[1:] + word[:1]  # RotWord
            word = [_SBOX[b] for b in word]  # SubWord
            word[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            word = [_SBOX[b] for b in word]
        words.append([words[i - nk][j] ^ word[j] for j in range(4)])
    return words


class AES:
    """Raw AES block transform for a fixed key.

    Parameters
    ----------
    key:
        16, 24, or 32 bytes for AES-128/192/256 respectively.
    """

    def __init__(self, key: bytes):
        key = bytes(key)
        if len(key) not in _VALID_KEY_SIZES:
            raise ValueError(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
            )
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        words = _expand_key(key)
        # Flatten each group of 4 words into one 16-byte round key.
        self._round_keys = [
            bytes(b for word in words[4 * r : 4 * r + 4] for b in word)
            for r in range(self._rounds + 1)
        ]

    @property
    def rounds(self) -> int:
        """Number of cipher rounds (10/12/14)."""
        return self._rounds

    # State layout: FIPS-197 stores the state column-major; we keep the
    # 16-byte block in input order and index accordingly. Byte i of the
    # block is state[row=i%4][col=i//4].

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("AES operates on exactly 16-byte blocks")
        state = bytearray(x ^ k for x, k in zip(block, self._round_keys[0]))
        for rnd in range(1, self._rounds):
            state = self._sub_shift(state)
            state = self._mix_columns(state)
            key = self._round_keys[rnd]
            state = bytearray(x ^ k for x, k in zip(state, key))
        state = self._sub_shift(state)
        key = self._round_keys[self._rounds]
        return bytes(x ^ k for x, k in zip(state, key))

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("AES operates on exactly 16-byte blocks")
        key = self._round_keys[self._rounds]
        state = bytearray(x ^ k for x, k in zip(block, key))
        for rnd in range(self._rounds - 1, 0, -1):
            state = self._inv_shift_sub(state)
            key = self._round_keys[rnd]
            state = bytearray(x ^ k for x, k in zip(state, key))
            state = self._inv_mix_columns(state)
        state = self._inv_shift_sub(state)
        return bytes(x ^ k for x, k in zip(state, self._round_keys[0]))

    @staticmethod
    def _sub_shift(state: bytearray) -> bytearray:
        """Combined SubBytes + ShiftRows."""
        out = bytearray(16)
        for col in range(4):
            for row in range(4):
                # ShiftRows: row r is rotated left by r columns.
                src_col = (col + row) % 4
                out[4 * col + row] = _SBOX[state[4 * src_col + row]]
        return out

    @staticmethod
    def _inv_shift_sub(state: bytearray) -> bytearray:
        """Combined InvShiftRows + InvSubBytes."""
        out = bytearray(16)
        for col in range(4):
            for row in range(4):
                src_col = (col - row) % 4
                out[4 * col + row] = _INV_SBOX[state[4 * src_col + row]]
        return out

    @staticmethod
    def _mix_columns(state: bytearray) -> bytearray:
        out = bytearray(16)
        for col in range(4):
            a0, a1, a2, a3 = state[4 * col : 4 * col + 4]
            out[4 * col + 0] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            out[4 * col + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            out[4 * col + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            out[4 * col + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]
        return out

    @staticmethod
    def _inv_mix_columns(state: bytearray) -> bytearray:
        out = bytearray(16)
        for col in range(4):
            a0, a1, a2, a3 = state[4 * col : 4 * col + 4]
            out[4 * col + 0] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            out[4 * col + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            out[4 * col + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            out[4 * col + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]
        return out


# --- Lane-parallel fast path --------------------------------------------
# The n blocks of a message are one big-endian int of 128*n bits (block 0
# in the top bits), and each round runs over all of them at once:
# SubBytes is one ``bytes.translate`` through the reference S-box,
# ShiftRows seven masked shifts, MixColumns byte rotations inside each
# 32-bit column plus a masked xtime, AddRoundKey one XOR with the round
# key copied into every lane.  The masks are per-block byte patterns
# repeated n times.

#: Longest run of blocks one kernel call holds; longer messages run in
#: chunks this long (past a few hundred blocks a big-int step costs more
#: per block than the per-call overhead it saves).
_CHUNK_BLOCKS = 256

_MASK128 = (1 << 128) - 1


def _shift_rows_masks() -> dict[int, bytes]:
    """ShiftRows as masked shifts: byte shift -> the one-block mask of the
    source bytes that move by it.  Output byte ``4*col + row`` reads input
    byte ``4*((col + row) % 4) + row``; a positive shift means the source
    lies further down the block, so it moves up (a left shift)."""
    masks: dict[int, bytearray] = {}
    for col in range(4):
        for row in range(4):
            src = 4 * ((col + row) % 4) + row
            masks.setdefault(src - 4 * col - row, bytearray(16))[src] = 0xFF
    return {shift: bytes(mask) for shift, mask in masks.items()}


_SHIFT_ROWS = _shift_rows_masks()


@lru_cache(maxsize=32)
def _lanes(n: int) -> tuple[int, ...]:
    """The constants of an ``n``-block state, each a per-block pattern
    repeated ``n`` times: the lane replicator (``v * rep`` copies a
    128-bit ``v`` into every block), the counter offsets ``0 .. n-1``,
    the ShiftRows masks and the MixColumns masks.  Bounded, so memory
    does not grow with the number of message lengths seen."""

    def lanes(pattern: bytes) -> int:
        return int.from_bytes(pattern * (16 // len(pattern) * n), "big")

    return (
        lanes(bytes(15) + b"\1"),
        int.from_bytes(b"".join(i.to_bytes(16, "big") for i in range(n)), "big"),
        *(lanes(_SHIFT_ROWS[shift]) for shift in (0, 4, -4, 8, -8, 12, -12)),
        lanes(b"\0\xff\xff\xff"),  # rot8 within a column: bytes moving up
        lanes(b"\xff\0\0\0"),  # ... and the one wrapping round
        lanes(b"\0\0\xff\xff"),  # rot16
        lanes(b"\xff\xff\0\0"),
        lanes(b"\x7f"),  # xtime: the bits that stay in their byte
        lanes(b"\x01"),  # ... and where each carried-out top bit lands
    )


def _sub_word(word: int) -> int:
    """SubWord (FIPS-197 §5.2): the S-box on each byte of a 32-bit word."""
    return int.from_bytes(word.to_bytes(4, "big").translate(_SBOX), "big")


class AESFast:
    """Lane-parallel AES, encryption only, with :class:`AES`'s outputs.

    CTR — the only mode the library runs — decrypts by encrypting
    counters, so there is no inverse cipher and no inverse key schedule
    here; :meth:`AES.decrypt_block` is the reference for that direction.
    """

    __slots__ = ("_rk",)

    def __init__(self, key: bytes):
        key = bytes(key)
        if len(key) not in _VALID_KEY_SIZES:
            raise ValueError(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
            )
        # The key schedule (FIPS-197 §5.2) on 32-bit words; round key r
        # is words 4r .. 4r+3 as one 128-bit int.
        nk = len(key) // 4
        words = list(struct.unpack(f">{nk}I", key))
        for i in range(nk, 4 * (nk + 7)):  # rounds + 1 = nk + 7 round keys
            word = words[i - 1]
            if i % nk == 0:
                word = ((word << 8) | (word >> 24)) & 0xFFFFFFFF  # RotWord
                word = _sub_word(word) ^ (_RCON[i // nk - 1] << 24)
            elif nk > 6 and i % nk == 4:
                word = _sub_word(word)
            words.append(words[i - nk] ^ word)
        self._rk = [
            (words[i] << 96) | (words[i + 1] << 64) | (words[i + 2] << 32) | words[i + 3]
            for i in range(0, len(words), 4)
        ]

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("AES operates on exactly 16-byte blocks")
        return self._encrypt_lanes(int.from_bytes(block, "big"), 1).to_bytes(16, "big")

    def ctr_keystream(self, counter: int, nblocks: int) -> bytes:
        """Generate ``nblocks`` CTR keystream blocks starting at ``counter``.

        Equal to encrypting the counter blocks one by one (big-endian,
        incrementing mod 2^128, NIST SP 800-38A); each chunk of up to
        ``_CHUNK_BLOCKS`` blocks goes through the rounds as one int.
        """
        counter &= _MASK128
        chunks = []
        for start in range(0, nblocks, _CHUNK_BLOCKS):
            n = min(_CHUNK_BLOCKS, nblocks - start)
            first = counter + start
            if first + n <= 1 << 128:
                rep, offsets = _lanes(n)[:2]
                state = first * rep + offsets
            else:  # the counter wraps to 0 inside this chunk
                state = int.from_bytes(
                    b"".join(((first + i) & _MASK128).to_bytes(16, "big") for i in range(n)),
                    "big",
                )
            chunks.append(self._encrypt_lanes(state, n).to_bytes(16 * n, "big"))
        return b"".join(chunks)

    def _encrypt_lanes(self, x: int, n: int) -> int:
        """Encrypt the ``n`` blocks held in ``x``."""
        rep, _, keep, l4, r4, l8, r8, l12, r12, lo3, hi1, lo2, hi2, low7, low1 = _lanes(n)
        size = 16 * n
        sbox = _SBOX
        rk = self._rk
        last = len(rk) - 1
        x ^= rk[0] * rep
        for r in range(1, last + 1):
            # SubBytes, then ShiftRows
            x = int.from_bytes(x.to_bytes(size, "big").translate(sbox), "big")
            x = (
                (x & keep)
                | ((x & l4) << 32) | ((x & r4) >> 32)
                | ((x & l8) << 64) | ((x & r8) >> 64)
                | ((x & l12) << 96) | ((x & r12) >> 96)
            )
            if r < last:
                # MixColumns on each column (a0, a1, a2, a3), indices mod 4:
                # b_i = xtime(a_i ^ a_i+1) ^ a_i+1 ^ (a_i+2 ^ a_i+3).
                rot = ((x & lo3) << 8) | ((x & hi1) >> 24)
                t = x ^ rot
                x = (
                    ((t & low7) << 1) ^ (((t >> 7) & low1) * 0x1B)
                    ^ rot ^ ((t & lo2) << 16) ^ ((t & hi2) >> 16)
                )
            x ^= rk[r] * rep
        return x
