"""AES block cipher (FIPS-197) implemented from scratch in pure Python.

Supports AES-128, AES-192 and AES-256.  Two implementations share the
same key schedule and test vectors:

- :class:`AES` — the auditable **reference** implementation: byte-wise
  state, S-box and GF(2^8) tables built programmatically from their
  mathematical definitions.  It favours clarity over speed.
- :class:`AESFast` — the **fast path**, encryption only (CTR decrypts
  by encrypting counters): the classic 32-bit T-table formulation (four
  1 KiB lookup tables fusing SubBytes + ShiftRows + MixColumns), run
  over four int words per block, or over an ``(n, 16)`` numpy byte
  state for large CTR batches.  The T-tables are derived *from the
  reference tables* at import time, so the reference derivation stays
  the single source of truth; equivalence is pinned by the FIPS-197
  Appendix C vectors and by differential property tests
  (``tests/crypto/test_backend.py``, ``tests/properties``).

The library runs :class:`AESFast` (behind the key-schedule cache in
:mod:`repro.crypto.backend`); :class:`AES` is the oracle.  Modes of
operation are in :mod:`repro.crypto.modes`.
"""

from __future__ import annotations

import struct

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


# --- T-table fast path --------------------------------------------------
# One 32-bit table entry fuses SubBytes with the MixColumns contribution
# of one state row; ShiftRows becomes index arithmetic.  Derived from the
# reference tables (_SBOX, _MULx) so the from-scratch derivation above
# remains the single source of truth.


def _build_enc_tables() -> tuple[tuple[int, ...], ...]:
    t0, t1, t2, t3 = [], [], [], []
    for x in range(256):
        s = _SBOX[x]
        s2, s3 = _MUL2[s], _MUL3[s]
        t0.append((s2 << 24) | (s << 16) | (s << 8) | s3)
        t1.append((s3 << 24) | (s2 << 16) | (s << 8) | s)
        t2.append((s << 24) | (s3 << 16) | (s2 << 8) | s)
        t3.append((s << 24) | (s << 16) | (s3 << 8) | s2)
    return tuple(t0), tuple(t1), tuple(t2), tuple(t3)


_T0, _T1, _T2, _T3 = _build_enc_tables()

#: Batch size from which the vectorised CTR path beats the scalar loop
#: (the numpy dispatch overhead is a few hundred microseconds per call).
_NP_MIN_BLOCKS = 32

#: numpy, imported by the first batch that large (many processes never
#: send one): ``None`` until then, ``False`` when it is not installed.
_np = None


def _words_np(words):
    """32-bit words as uint32 whose native bytes are the words' big-endian
    bytes: XOR is bytewise, so a ``view(uint8)`` of any XOR of such
    arrays is the AES state in byte order on either host endianness."""
    return _np.array(words, dtype=">u4").view(_np.uint32)


def _load_numpy():
    """Import numpy and copy the encryption tables to arrays, so whole
    batches of counter blocks run each round as table gathers."""
    global _np, _T_NP, _SBOX_NP, _SHIFT_ROWS_NP
    try:
        import numpy as _np
    except ImportError:  # pragma: no cover - depends on the environment
        _np = False
        return _np
    _T_NP = tuple(_words_np(table) for table in (_T0, _T1, _T2, _T3))
    _SBOX_NP = _np.frombuffer(_SBOX, dtype=_np.uint8)
    # ShiftRows as byte positions: output byte ``4*col + row`` of a
    # round reads input byte ``4*((col + row) % 4) + row``.
    _SHIFT_ROWS_NP = _np.array(
        [4 * ((col + row) % 4) + row for col in range(4) for row in range(4)]
    )
    return _np


class AESFast:
    """T-table AES, encryption only, with :class:`AES`'s outputs.

    CTR — the only mode the library runs — decrypts by encrypting
    counters, so there is no inverse cipher and no inverse key schedule
    here; :meth:`AES.decrypt_block` is the reference for that direction.
    """

    __slots__ = ("_rounds", "_erk")

    def __init__(self, key: bytes):
        key = bytes(key)
        if len(key) not in _VALID_KEY_SIZES:
            raise ValueError(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
            )
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._erk = [
            (w[0] << 24) | (w[1] << 16) | (w[2] << 8) | w[3]
            for w in _expand_key(key)
        ]

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("AES operates on exactly 16-byte blocks")
        rk = self._erk
        b0, b1, b2, b3 = struct.unpack(">4I", block)
        s0, s1, s2, s3 = b0 ^ rk[0], b1 ^ rk[1], b2 ^ rk[2], b3 ^ rk[3]
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        i = 4
        for _ in range(self._rounds - 1):
            u0 = t0[s0 >> 24] ^ t1[(s1 >> 16) & 255] ^ t2[(s2 >> 8) & 255] ^ t3[s3 & 255] ^ rk[i]
            u1 = t0[s1 >> 24] ^ t1[(s2 >> 16) & 255] ^ t2[(s3 >> 8) & 255] ^ t3[s0 & 255] ^ rk[i + 1]
            u2 = t0[s2 >> 24] ^ t1[(s3 >> 16) & 255] ^ t2[(s0 >> 8) & 255] ^ t3[s1 & 255] ^ rk[i + 2]
            u3 = t0[s3 >> 24] ^ t1[(s0 >> 16) & 255] ^ t2[(s1 >> 8) & 255] ^ t3[s2 & 255] ^ rk[i + 3]
            s0, s1, s2, s3 = u0, u1, u2, u3
            i += 4
        sb = _SBOX
        r0 = ((sb[s0 >> 24] << 24) | (sb[(s1 >> 16) & 255] << 16) | (sb[(s2 >> 8) & 255] << 8) | sb[s3 & 255]) ^ rk[i]
        r1 = ((sb[s1 >> 24] << 24) | (sb[(s2 >> 16) & 255] << 16) | (sb[(s3 >> 8) & 255] << 8) | sb[s0 & 255]) ^ rk[i + 1]
        r2 = ((sb[s2 >> 24] << 24) | (sb[(s3 >> 16) & 255] << 16) | (sb[(s0 >> 8) & 255] << 8) | sb[s1 & 255]) ^ rk[i + 2]
        r3 = ((sb[s3 >> 24] << 24) | (sb[(s0 >> 16) & 255] << 16) | (sb[(s1 >> 8) & 255] << 8) | sb[s2 & 255]) ^ rk[i + 3]
        return struct.pack(">4I", r0, r1, r2, r3)

    def ctr_keystream(self, counter: int, nblocks: int) -> bytes:
        """Generate ``nblocks`` CTR keystream blocks starting at ``counter``.

        Equivalent to encrypting the counter blocks one by one (big-endian,
        incrementing mod 2^128, NIST SP 800-38A) but with the per-block
        byte/struct plumbing hoisted out of the loop.  When numpy is
        available, batches of at least ``_NP_MIN_BLOCKS`` run each round
        as vectorised table gathers over the whole batch.
        """
        if nblocks >= _NP_MIN_BLOCKS and (_np if _np is not None else _load_numpy()):
            return self._ctr_keystream_np(counter, nblocks)
        return self._ctr_keystream_py(counter, nblocks)

    def _ctr_keystream_np(self, counter: int, nblocks: int) -> bytes:
        """Vectorised CTR keystream over an ``(nblocks, 16)`` byte state.

        Each full round is one fancy-index of the ShiftRows positions,
        four T-table gathers (one per state row) and the round-key XOR;
        the last round swaps the T-tables for the S-box.
        """
        counter &= (1 << 128) - 1
        # 128-bit big-endian counters as two uint64 lanes with explicit carry.
        index = _np.arange(nblocks, dtype=_np.uint64)
        low = _np.uint64(counter & 0xFFFFFFFFFFFFFFFF) + index
        blocks = _np.empty((nblocks, 2), dtype=">u8")
        blocks[:, 0] = _np.uint64(counter >> 64) + (low < index)
        blocks[:, 1] = low
        rk = _words_np(self._erk).reshape(-1, 4)
        rk_bytes = rk.view(_np.uint8)
        state = blocks.view(_np.uint8) ^ rk_bytes[0]
        t0, t1, t2, t3 = _T_NP
        shift = _SHIFT_ROWS_NP
        # A gather's result takes the strides of its (strided) index, so
        # the XOR lands in a C-ordered buffer that views as (n, 16) bytes.
        words = _np.empty((nblocks, 4), dtype=_np.uint32)
        for rnd in range(1, self._rounds):
            s = state[:, shift].reshape(nblocks, 4, 4)  # [block, column, row]
            _np.bitwise_xor(t0[s[:, :, 0]], t1[s[:, :, 1]], out=words)
            words ^= t2[s[:, :, 2]]
            words ^= t3[s[:, :, 3]]
            words ^= rk[rnd]
            state = words.view(_np.uint8)
        state = _SBOX_NP[state[:, shift]] ^ rk_bytes[self._rounds]
        return state.tobytes()

    def _ctr_keystream_py(self, counter: int, nblocks: int) -> bytes:
        rk = self._erk
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        sb = _SBOX
        rounds_minus_2 = self._rounds - 2
        last = 4 * self._rounds
        counter &= (1 << 128) - 1
        c0 = (counter >> 96) & 0xFFFFFFFF
        c1 = (counter >> 64) & 0xFFFFFFFF
        c2 = (counter >> 32) & 0xFFFFFFFF
        c3 = counter & 0xFFFFFFFF
        blocks = []
        append = blocks.append
        k3 = rk[3]
        refresh = True  # recompute the hoisted round-1 terms
        for _ in range(nblocks):
            if refresh:
                # Words 0-2 of the counter block are fixed until a carry
                # out of the low word, so the whitened state words
                # s0..s2 — and with them most of round 1 — are constant
                # across the batch.  Hoist the constant T-table terms;
                # only the contributions of s3 vary per block.
                s0 = c0 ^ rk[0]
                s1 = c1 ^ rk[1]
                s2 = c2 ^ rk[2]
                a0 = t0[s0 >> 24] ^ t1[(s1 >> 16) & 255] ^ t2[(s2 >> 8) & 255] ^ rk[4]
                a1 = t0[s1 >> 24] ^ t1[(s2 >> 16) & 255] ^ t3[s0 & 255] ^ rk[5]
                a2 = t0[s2 >> 24] ^ t2[(s0 >> 8) & 255] ^ t3[s1 & 255] ^ rk[6]
                a3 = t1[(s0 >> 16) & 255] ^ t2[(s1 >> 8) & 255] ^ t3[s2 & 255] ^ rk[7]
                refresh = False
            s3 = c3 ^ k3
            u0 = a0 ^ t3[s3 & 255]
            u1 = a1 ^ t2[(s3 >> 8) & 255]
            u2 = a2 ^ t1[(s3 >> 16) & 255]
            u3 = a3 ^ t0[s3 >> 24]
            i = 8
            for _ in range(rounds_minus_2):
                v0 = t0[u0 >> 24] ^ t1[(u1 >> 16) & 255] ^ t2[(u2 >> 8) & 255] ^ t3[u3 & 255] ^ rk[i]
                v1 = t0[u1 >> 24] ^ t1[(u2 >> 16) & 255] ^ t2[(u3 >> 8) & 255] ^ t3[u0 & 255] ^ rk[i + 1]
                v2 = t0[u2 >> 24] ^ t1[(u3 >> 16) & 255] ^ t2[(u0 >> 8) & 255] ^ t3[u1 & 255] ^ rk[i + 2]
                v3 = t0[u3 >> 24] ^ t1[(u0 >> 16) & 255] ^ t2[(u1 >> 8) & 255] ^ t3[u2 & 255] ^ rk[i + 3]
                u0, u1, u2, u3 = v0, v1, v2, v3
                i += 4
            r0 = ((sb[u0 >> 24] << 24) | (sb[(u1 >> 16) & 255] << 16) | (sb[(u2 >> 8) & 255] << 8) | sb[u3 & 255]) ^ rk[last]
            r1 = ((sb[u1 >> 24] << 24) | (sb[(u2 >> 16) & 255] << 16) | (sb[(u3 >> 8) & 255] << 8) | sb[u0 & 255]) ^ rk[last + 1]
            r2 = ((sb[u2 >> 24] << 24) | (sb[(u3 >> 16) & 255] << 16) | (sb[(u0 >> 8) & 255] << 8) | sb[u1 & 255]) ^ rk[last + 2]
            r3 = ((sb[u3 >> 24] << 24) | (sb[(u0 >> 16) & 255] << 16) | (sb[(u1 >> 8) & 255] << 8) | sb[u2 & 255]) ^ rk[last + 3]
            append(struct.pack(">4I", r0, r1, r2, r3))
            c3 += 1
            if c3 == 0x100000000:  # carry into the higher counter words
                c3 = 0
                c2 = (c2 + 1) & 0xFFFFFFFF
                if c2 == 0:
                    c1 = (c1 + 1) & 0xFFFFFFFF
                    if c1 == 0:
                        c0 = (c0 + 1) & 0xFFFFFFFF
                refresh = True
        return b"".join(blocks)
