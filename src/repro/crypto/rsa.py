"""RSA public-key cryptosystem implemented from scratch.

Used for the per-user keypairs ``(PubK_u, PrivK_u)`` of §3: view keys
are disseminated as ``enc(K_V, PubK_u')`` and only holders of the
matching private key can recover them.  Role keypairs for RBAC (§4.6)
reuse the same implementation.

Key generation uses Miller-Rabin probabilistic primality testing;
encryption uses OAEP padding (RFC 8017 §7.1 with SHA-256/MGF1) and
signatures use a deterministic full-domain-hash PSS-style padding.

Default modulus size is 1024 bits — small by production standards but a
deliberate choice for a pure-Python simulation where thousands of
keypairs are generated per benchmark run.  The size is a parameter, so
callers wanting 2048+ bits just pass ``bits=2048``.
"""

from __future__ import annotations

import math
import secrets
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.crypto.hashing import sha256
from repro.errors import DecryptionError, InvalidKeyError, SignatureError

DEFAULT_BITS = 1024
PUBLIC_EXPONENT = 65537

_HASH_LEN = 32


def _sieve_primes(limit: int) -> tuple[int, ...]:
    """All primes below ``limit`` by the Sieve of Eratosthenes."""
    composite = bytearray(limit)
    for i in range(2, int(limit**0.5) + 1):
        if not composite[i]:
            composite[i * i :: i] = b"\x01" * len(composite[i * i :: i])
    return tuple(i for i in range(2, limit) if not composite[i])


# Module-level small-prime table, computed once and shared by every
# primality test and keygen call (the seed recomputed trial-division
# candidates per call).  2048 covers enough primes that ~80% of random
# odd candidates are rejected before any modular exponentiation.
_SMALL_PRIME_LIMIT = 2048
_SMALL_PRIMES = _sieve_primes(_SMALL_PRIME_LIMIT)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
#: Product of all odd small primes — one gcd replaces ~300 mods.
_ODD_PRIME_PRODUCT = math.prod(_SMALL_PRIMES[1:])


def _has_small_factor(n: int) -> bool:
    """True if an odd ``n > _SMALL_PRIME_LIMIT`` has a small prime factor."""
    return math.gcd(n, _ODD_PRIME_PRODUCT) != 1


def _is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin primality test with ``rounds`` random witnesses."""
    if n < 2:
        return False
    if n <= _SMALL_PRIME_LIMIT:
        return n in _SMALL_PRIME_SET
    if n % 2 == 0 or _has_small_factor(n):
        return False
    # Write n-1 as d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = secrets.randbelow(n - 3) + 2
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int) -> int:
    """Draw a random prime of exactly ``bits`` bits.

    Scans an incremental window from a random odd starting point: the
    residues of the start modulo every small prime are computed once,
    and each candidate in the window is screened by updating those
    residues — no big-int divisions and no Miller-Rabin call until a
    candidate survives the sieve.
    """
    window = 1 << 12  # odd candidates per random restart
    top = 1 << (bits - 1)
    while True:
        start = secrets.randbits(bits) | top | 1
        # sieve[i] marks start + 2*i as having a small prime factor.
        sieve = bytearray(window)
        for p in _SMALL_PRIMES[1:]:
            # First index with (start + 2*i) % p == 0: i = -start/2 mod p.
            first = (-(start % p) * ((p + 1) // 2)) % p
            sieve[first::p] = b"\x01" * len(sieve[first::p])
        for i in range(window):
            if sieve[i]:
                continue
            candidate = start + 2 * i
            if candidate.bit_length() != bits:
                break  # window ran past 2^bits; restart
            # 12 rounds suffice here: for *random* (non-adversarial)
            # candidates the Damgård-Landrock-Pomerance average-case
            # bound puts the error far below 2^-80 at these sizes.
            if _is_probable_prime(candidate, rounds=12):
                return candidate


def _mgf1(seed: bytes, length: int) -> bytes:
    """MGF1 mask generation function with SHA-256 (RFC 8017 B.2.1)."""
    output = bytearray()
    counter = 0
    while len(output) < length:
        output += sha256(seed + counter.to_bytes(4, "big"))
        counter += 1
    return bytes(output[:length])


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


@dataclass(frozen=True)
class RSAPublicKey:
    """RSA public key ``(n, e)`` with OAEP encryption and signature verify."""

    n: int
    e: int = PUBLIC_EXPONENT

    @property
    def byte_size(self) -> int:
        """Modulus size in bytes (ciphertext / signature length)."""
        return (self.n.bit_length() + 7) // 8

    @property
    def max_message_size(self) -> int:
        """Largest plaintext OAEP can carry under this modulus."""
        return self.byte_size - 2 * _HASH_LEN - 2

    def encrypt(self, plaintext: bytes) -> bytes:
        """OAEP-encrypt ``plaintext``; output is one modulus-sized block."""
        plaintext = bytes(plaintext)
        k = self.byte_size
        if len(plaintext) > self.max_message_size:
            raise InvalidKeyError(
                f"message of {len(plaintext)} bytes exceeds OAEP capacity "
                f"{self.max_message_size} for a {k * 8}-bit modulus"
            )
        # EME-OAEP encoding (label = empty).
        l_hash = sha256(b"")
        padding = b"\x00" * (k - len(plaintext) - 2 * _HASH_LEN - 2)
        data_block = l_hash + padding + b"\x01" + plaintext
        seed = secrets.token_bytes(_HASH_LEN)
        masked_db = _xor(data_block, _mgf1(seed, len(data_block)))
        masked_seed = _xor(seed, _mgf1(masked_db, _HASH_LEN))
        encoded = b"\x00" + masked_seed + masked_db
        m = int.from_bytes(encoded, "big")
        c = pow(m, self.e, self.n)
        return c.to_bytes(k, "big")

    def verify(self, message: bytes, signature: bytes) -> None:
        """Verify a signature from the matching private key.

        Raises
        ------
        SignatureError
            If the signature does not verify.
        """
        if len(signature) != self.byte_size:
            raise SignatureError("signature has wrong length for this key")
        s = int.from_bytes(signature, "big")
        if s >= self.n:
            raise SignatureError("signature value out of range")
        recovered = pow(s, self.e, self.n)
        expected = int.from_bytes(_fdh_encode(message, self.byte_size), "big")
        if recovered != expected:
            raise SignatureError("signature mismatch")

    def fingerprint(self) -> str:
        """Stable short identifier for this key (used in on-chain records)."""
        material = self.n.to_bytes(self.byte_size, "big") + self.e.to_bytes(4, "big")
        return sha256(material).hex()[:20]

    def __hash__(self) -> int:  # dataclass(frozen=True) provides __eq__
        return hash((self.n, self.e))


def _fdh_encode(message: bytes, k: int) -> bytes:
    """Deterministic full-domain-hash encoding for signatures.

    Expands ``sha256(message)`` with MGF1 to fill the modulus, with the
    top byte cleared so the value is always below ``n``.
    """
    digest = sha256(bytes(message))
    encoded = bytearray(_mgf1(b"ledgerview/sig" + digest, k))
    encoded[0] = 0
    return bytes(encoded)


@dataclass(frozen=True)
class RSAPrivateKey:
    """RSA private key with CRT-accelerated decryption and signing."""

    n: int
    d: int = field(repr=False)
    p: int = field(repr=False)
    q: int = field(repr=False)
    e: int = PUBLIC_EXPONENT

    @property
    def byte_size(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def _crt_params(self) -> tuple[int, int, int]:
        """CRT exponents and coefficient, computed once per key.

        The dataclass is frozen, so the memo is attached via
        ``object.__setattr__``; it is not a dataclass field and does not
        affect equality or hashing.
        """
        cached = getattr(self, "_crt_cache", None)
        if cached is None:
            cached = (
                self.d % (self.p - 1),
                self.d % (self.q - 1),
                pow(self.q, -1, self.p),
            )
            object.__setattr__(self, "_crt_cache", cached)
        return cached

    def _private_op(self, value: int) -> int:
        """Compute ``value^d mod n`` via the Chinese Remainder Theorem."""
        dp, dq, q_inv = self._crt_params()
        m1 = pow(value % self.p, dp, self.p)
        m2 = pow(value % self.q, dq, self.q)
        h = (q_inv * (m1 - m2)) % self.p
        return m2 + h * self.q

    def decrypt(self, ciphertext: bytes) -> bytes:
        """OAEP-decrypt one modulus-sized ciphertext block."""
        k = self.byte_size
        if len(ciphertext) != k:
            raise DecryptionError("RSA ciphertext has wrong length")
        c = int.from_bytes(ciphertext, "big")
        if c >= self.n:
            raise DecryptionError("RSA ciphertext out of range")
        encoded = self._private_op(c).to_bytes(k, "big")
        if encoded[0] != 0:
            raise DecryptionError("OAEP decoding failed")
        masked_seed = encoded[1 : 1 + _HASH_LEN]
        masked_db = encoded[1 + _HASH_LEN :]
        seed = _xor(masked_seed, _mgf1(masked_db, _HASH_LEN))
        data_block = _xor(masked_db, _mgf1(seed, len(masked_db)))
        l_hash = sha256(b"")
        if data_block[:_HASH_LEN] != l_hash:
            raise DecryptionError("OAEP label hash mismatch")
        # Find the 0x01 separator after the zero padding.
        rest = data_block[_HASH_LEN:]
        separator = rest.find(b"\x01")
        if separator < 0 or any(rest[:separator]):
            raise DecryptionError("OAEP padding malformed")
        return rest[separator + 1 :]

    def sign(self, message: bytes) -> bytes:
        """Produce a deterministic FDH signature over ``message``."""
        encoded = int.from_bytes(_fdh_encode(message, self.byte_size), "big")
        return self._private_op(encoded).to_bytes(self.byte_size, "big")

    def public_key(self) -> RSAPublicKey:
        """Derive the matching public key."""
        return RSAPublicKey(n=self.n, e=self.e)

    def to_bytes(self) -> bytes:
        """Serialize for secure distribution (e.g. sealed role keys)."""
        import json

        return json.dumps(
            {"n": self.n, "d": self.d, "p": self.p, "q": self.q, "e": self.e}
        ).encode()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "RSAPrivateKey":
        """Inverse of :meth:`to_bytes`."""
        import json

        body = json.loads(raw.decode())
        return cls(n=body["n"], d=body["d"], p=body["p"], q=body["q"], e=body["e"])


@dataclass(frozen=True)
class RSAKeyPair:
    """A matched public/private key pair for one user or role."""

    public: RSAPublicKey
    private: RSAPrivateKey = field(repr=False)


def _generate_fresh_keypair(bits: int) -> RSAKeyPair:
    """Generate a keypair unconditionally (never consults the pool)."""
    if bits < 512:
        raise InvalidKeyError("modulus must be at least 512 bits")
    half = bits // 2
    while True:
        p = _random_prime(half)
        q = _random_prime(bits - half)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % PUBLIC_EXPONENT == 0:
            continue
        d = pow(PUBLIC_EXPONENT, -1, phi)
        public = RSAPublicKey(n=n, e=PUBLIC_EXPONENT)
        private = RSAPrivateKey(n=n, d=d, p=p, q=q, e=PUBLIC_EXPONENT)
        return RSAKeyPair(public=public, private=private)


class KeyPairPool:
    """Opt-in pool that recycles a bounded set of keypairs per modulus size.

    Benchmark runs register thousands of simulated users and roles, each
    of which triggers a full prime search.  The measured quantities
    (simulated throughput/latency, storage, on-chain tx counts) do not
    depend on key *values*, only on the protocol operations performed —
    so the harness can opt into serving identities from a small pool of
    pregenerated keypairs, cycled round-robin once ``size`` distinct
    pairs exist per bit length.

    **Not a security mechanism**: pooled identities share key material,
    so any test asserting that one user cannot decrypt another user's
    envelope must run without the pool (the pool is strictly opt-in and
    scoped via :func:`keypair_pool`).
    """

    def __init__(self, size: int = 32):
        if size < 1:
            raise ValueError("pool size must be at least 1")
        self.size = size
        self._pools: dict[int, list[RSAKeyPair]] = {}
        self._cursors: dict[int, int] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, bits: int) -> RSAKeyPair:
        """A keypair of the requested size — fresh until the pool fills."""
        with self._lock:
            pool = self._pools.setdefault(bits, [])
            if len(pool) < self.size:
                self.misses += 1
                pair = _generate_fresh_keypair(bits)
                pool.append(pair)
                return pair
            self.hits += 1
            cursor = self._cursors.get(bits, 0)
            self._cursors[bits] = (cursor + 1) % len(pool)
            return pool[cursor]


_pool: KeyPairPool | None = None


def active_keypair_pool() -> KeyPairPool | None:
    """The installed pool, if any."""
    return _pool


@contextmanager
def keypair_pool(size: int = 32) -> Iterator[KeyPairPool]:
    """Scoped pool activation for benchmark harnesses.

    Nested uses stack: the previous pool (or none) is restored on exit.
    """
    global _pool
    previous = _pool
    pool = KeyPairPool(size)
    _pool = pool
    try:
        yield pool
    finally:
        _pool = previous


def generate_keypair(bits: int = DEFAULT_BITS) -> RSAKeyPair:
    """Generate an RSA keypair with a ``bits``-bit modulus.

    The two primes are drawn independently at ``bits // 2`` each and the
    public exponent is the conventional 65537.  If a :class:`KeyPairPool`
    is active (see :func:`keypair_pool`), the pair is served from the
    pool instead — an explicit, benchmark-only trade of key uniqueness
    for setup speed.
    """
    pool = _pool
    if pool is not None:
        return pool.get(bits)
    return _generate_fresh_keypair(bits)
