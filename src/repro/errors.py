"""Exception hierarchy for the LedgerView reproduction.

Every error raised by the library derives from :class:`LedgerViewError`
so that callers can catch the whole family with a single handler while
still being able to distinguish crypto failures from ledger failures,
access-control denials, and simulation misuse.
"""

from __future__ import annotations


class LedgerViewError(Exception):
    """Base class for all errors raised by this library."""


class CryptoError(LedgerViewError):
    """Base class for cryptographic failures."""


class DecryptionError(CryptoError):
    """Ciphertext could not be decrypted (wrong key, corrupt data, bad MAC)."""


class InvalidKeyError(CryptoError):
    """A key has the wrong type, length, or structure for the operation."""


class SignatureError(CryptoError):
    """A digital signature failed to verify."""


class MerkleProofError(CryptoError):
    """A Merkle audit path failed to verify against the expected root."""


class LedgerError(LedgerViewError):
    """Base class for blockchain/ledger failures."""


class BlockValidationError(LedgerError):
    """A block fails structural or hash-chain validation."""


class ChainIntegrityError(LedgerError):
    """The hash chain linking blocks is broken."""


class TransactionNotFoundError(LedgerError):
    """A transaction id is not present on the ledger."""


class EndorsementError(LedgerError):
    """A transaction lacks the endorsements required by policy."""


class ChaincodeError(LedgerError):
    """A chaincode invocation raised or returned an error."""


class AccessControlError(LedgerViewError):
    """Base class for view/RBAC access failures."""


class AccessDeniedError(AccessControlError):
    """The requesting user has no (current) permission for the view."""


class ViewNotFoundError(AccessControlError):
    """No view is registered under the requested name."""


class DuplicateViewError(AccessControlError):
    """A view with the requested name already exists."""


class RevocationError(AccessControlError):
    """Revocation was requested on an irrevocable view."""


class VerificationError(AccessControlError):
    """A soundness or completeness check failed (tampering detected)."""


class WorkloadError(LedgerViewError):
    """The supply-chain workload specification is invalid."""


class SimulationError(LedgerViewError):
    """Misuse of the discrete-event simulation kernel."""


class ConfigError(LedgerViewError):
    """A backend selector (``NetworkConfig`` field or ``REPRO_*``
    environment variable) names a value that does not exist, or two
    selectors contradict each other."""


class TwoPhaseCommitError(LedgerError):
    """A cross-chain 2PC transaction could not reach a decision."""


class FaultInjectionError(SimulationError):
    """An invalid fault plan, or a workload the injected faults defeated
    (e.g. a transaction that never committed within the retry budget)."""


class InvariantViolationError(LedgerViewError):
    """A safety invariant broke under fault injection: duplicate commit,
    replica divergence, or audit verdicts drifting from the fault-free
    run (see :class:`repro.faults.InvariantMonitor`)."""


class OwnerUnavailableError(AccessControlError):
    """The view owner is offline (injected outage); synchronous
    owner-mediated operations cannot be served right now."""


class StorageError(LedgerViewError):
    """Base class for durability-layer failures (WAL, snapshots)."""


class SimulatedCrashError(StorageError):
    """An injected crash point fired mid-durability-operation: the node
    process is considered dead at this instant (see
    :class:`repro.storage.CrashPointGuard`).  Carries the torn prefix
    that made it to the log, if the crash interrupted an append."""

    def __init__(self, message: str, torn_prefix: bytes | None = None):
        super().__init__(message)
        self.torn_prefix = torn_prefix
