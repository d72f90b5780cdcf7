"""The outcome of the paper's ``ProcessSecret`` (the WithSecret interface):
a transaction's secret part, concealed for on-chain storage.

Each view-manager subclass implements
:meth:`~repro.views.manager.ViewManager.process_secret`:
encryption-based managers generate a fresh per-transaction key ``K_ij``
and store ciphertext on chain; hash-based managers draw a salt and store
``h(t[S] || s)``.  Either way the result is a :class:`ProcessedSecret`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.symmetric import SymmetricKey


@dataclass(frozen=True)
class ProcessedSecret:
    """Everything produced by processing one transaction's secret part.

    Attributes
    ----------
    concealed:
        Bytes stored on chain in place of ``t[S]`` (ciphertext or hash).
    salt:
        Public salt, non-empty only for hash-based concealment.
    tx_key:
        The per-transaction symmetric key (encryption-based methods).
    plaintext:
        The raw secret — retained by the view owner for hash-based
        methods, where the chain stores only a digest.
    """

    concealed: bytes
    salt: bytes = b""
    tx_key: SymmetricKey | None = field(default=None, repr=False)
    plaintext: bytes = field(default=b"", repr=False)
