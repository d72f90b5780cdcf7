"""Cryptographic substrate for LedgerView.

Everything here is implemented from scratch (on top of the standard
library's SHA-256 core) so the reproduction exercises the actual
cryptographic protocol of the paper: per-transaction symmetric keys,
view keys, salted hashing of secret parts, hybrid public-key envelopes
for key dissemination, and Merkle trees for state digests.

Public surface
--------------
- :func:`sha256`, :func:`salted_hash`, :func:`hmac_sha256`, :func:`random_salt`
- :class:`SymmetricKey` — AES-CTR + HMAC authenticated encryption
- :class:`RSAKeyPair`, :class:`RSAPublicKey`, :class:`RSAPrivateKey`
- :func:`seal` / :func:`open_sealed` / :func:`seal_many` — hybrid
  public-key envelopes
- :class:`MerkleTree`, :class:`MerkleProof`

Fast path and oracle
--------------------
Sealing runs on the T-table :class:`~repro.crypto.aes.AESFast` behind a
key-schedule cache (:mod:`repro.crypto.backend`); the auditable
:class:`~repro.crypto.aes.AES` is the oracle the differential tests
compare it against (``docs/PERFORMANCE.md``).
"""

from repro.crypto.hashing import (
    hmac_sha256,
    random_salt,
    salted_hash,
    sha256,
    sha256_hex,
    verify_salted_hash,
)
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.crypto.rsa import (
    RSAKeyPair,
    RSAPrivateKey,
    RSAPublicKey,
    generate_keypair,
)
from repro.crypto.envelope import open_sealed, seal, seal_many
from repro.crypto.symmetric import SymmetricKey

__all__ = [
    "sha256",
    "sha256_hex",
    "salted_hash",
    "verify_salted_hash",
    "hmac_sha256",
    "random_salt",
    "SymmetricKey",
    "RSAKeyPair",
    "RSAPublicKey",
    "RSAPrivateKey",
    "generate_keypair",
    "seal",
    "open_sealed",
    "seal_many",
    "MerkleTree",
    "MerkleProof",
]
