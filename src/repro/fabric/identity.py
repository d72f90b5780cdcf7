"""Identities: users, peers, and the membership service provider.

Every user ``u`` owns an RSA keypair ``(PubK_u, PrivK_u)`` (paper §3).
The membership service provider (MSP) plays the role of Fabric's
certificate authority: it registers identities and lets anyone resolve
a user id to a public key — which is exactly what the view methods need
to disseminate view keys (``enc(K_V, PubK_u)``).

Registering an identity and generating its key are separate events, as
in Fabric: a user's keypair is drawn the first time something seals to
it or it signs or opens an envelope.  Most simulated identities never
do — no peer under MAC signatures, few of a 2PC deployment's per-chain
clients — and pure-Python key generation is the expensive part of
set-up.  The MSP's ``key_bits`` knob sets the modulus; tests and
benchmarks use smaller moduli than a production deployment would.
"""

from __future__ import annotations

from repro.crypto.rsa import DEFAULT_BITS, RSAKeyPair, RSAPublicKey, generate_keypair
from repro.errors import AccessControlError


class User:
    """A registered identity (client, view owner, view reader, or peer).

    ``keypair`` is drawn on first use — the first ``keypair``,
    ``public_key``, ``sign`` or ``decrypt`` — unless one is passed in.
    Equality and hashing are by object and ``repr`` omits the key, so
    none of the three draws one.
    """

    __slots__ = ("user_id", "organization", "key_bits", "_keypair")

    def __init__(
        self,
        user_id: str,
        keypair: RSAKeyPair | None = None,
        organization: str = "org1",
        key_bits: int = DEFAULT_BITS,
    ):
        self.user_id = user_id
        self.organization = organization
        self.key_bits = key_bits
        self._keypair = keypair

    def __repr__(self) -> str:
        return f"User(user_id={self.user_id!r}, organization={self.organization!r})"

    @property
    def keypair(self) -> RSAKeyPair:
        if self._keypair is None:
            self._keypair = generate_keypair(self.key_bits)
        return self._keypair

    @property
    def public_key(self) -> RSAPublicKey:
        return self.keypair.public

    def sign(self, message: bytes) -> bytes:
        """Sign with the user's private key."""
        return self.keypair.private.sign(message)

    def decrypt(self, envelope: bytes) -> bytes:
        """Open an envelope sealed for this user."""
        from repro.crypto.envelope import open_sealed

        return open_sealed(self.keypair.private, envelope)


class MembershipServiceProvider:
    """Registry of identities, standing in for Fabric's MSP/CA."""

    def __init__(self, key_bits: int = 1024):
        self.key_bits = key_bits
        self._users: dict[str, User] = {}

    def __len__(self) -> int:
        return len(self._users)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._users

    def register(self, user_id: str, organization: str = "org1") -> User:
        """Register a new identity; its keypair is drawn on first use."""
        if user_id in self._users:
            raise AccessControlError(f"user id {user_id!r} already registered")
        user = User(user_id, organization=organization, key_bits=self.key_bits)
        self._users[user_id] = user
        return user

    def get(self, user_id: str) -> User:
        """Resolve an id to its full identity.

        Raises
        ------
        AccessControlError
            If the id is unknown.
        """
        user = self._users.get(user_id)
        if user is None:
            raise AccessControlError(f"unknown user {user_id!r}")
        return user

    def public_key_of(self, user_id: str) -> RSAPublicKey:
        """Public key lookup — the only information other parties need."""
        return self.get(user_id).public_key

    def reissue(self, user_id: str) -> User:
        """Replace an identity with one whose next use draws a new keypair.

        Used for *role* identities (paper §4.6): when the member set of
        a role changes, a new role keypair is created and distributed to
        the remaining members.
        """
        previous = self.get(user_id)
        replacement = User(
            user_id, organization=previous.organization, key_bits=self.key_bits
        )
        self._users[user_id] = replacement
        return replacement
