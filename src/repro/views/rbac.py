"""Role-based access control over views (paper §4.6).

Roles are assigned to users (``A_r``) and access permissions are given
to roles (``A_p``); both relations are stored transparently on chain in
the :class:`RBACContract` so any user can join them and learn who may
access a view.  Each role gets its own keypair, registered with the MSP
as a pseudo-user ``role:<name>`` — granting a view to a role then works
exactly like granting to a user, and the role's private key is securely
distributed to the role's members (sealed with each member's public
key, recorded on the ledger).

When the member set of a role changes, the role keypair is rotated and
re-distributed; views granted to the role are re-granted under the new
key (and, for revocable views, their ``K_V`` is rotated too, since
departed members knew the old one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.envelope import open_sealed, seal
from repro.crypto.rsa import RSAPrivateKey
from repro.errors import AccessControlError, ChaincodeError
from repro.fabric.chaincode import Chaincode, TxContext
from repro.fabric.network import Gateway
from repro.views import notary
from repro.views.manager import ViewManager, ViewReader
from repro.views.types import ViewMode

CHAINCODE_NAME = "rbac"


def role_principal(role_name: str) -> str:
    """MSP id of the pseudo-user representing a role."""
    return f"role:{role_name}"


class RBACContract(Chaincode):
    """On-chain storage of the ``A_r`` and ``A_p`` relations."""

    name = CHAINCODE_NAME

    # -- A_r: user ↔ role ---------------------------------------------------

    def fn_assign_role(self, ctx: TxContext, user: str, role: str) -> None:
        ctx.put_state(f"ar~{user}~{role}", True)

    def fn_unassign_role(self, ctx: TxContext, user: str, role: str) -> None:
        if ctx.get_state(f"ar~{user}~{role}") is None:
            raise ChaincodeError(f"user {user!r} does not hold role {role!r}")
        ctx.put_state(f"ar~{user}~{role}", False)

    # -- A_p: role ↔ view ----------------------------------------------------

    def fn_grant_permission(self, ctx: TxContext, role: str, view: str) -> None:
        ctx.put_state(f"ap~{role}~{view}", True)

    def fn_revoke_permission(self, ctx: TxContext, role: str, view: str) -> None:
        if ctx.get_state(f"ap~{role}~{view}") is None:
            raise ChaincodeError(f"role {role!r} has no permission on {view!r}")
        ctx.put_state(f"ap~{role}~{view}", False)

    # -- queries -----------------------------------------------------------------

    def fn_roles_of(self, ctx: TxContext, user: str) -> list[str]:
        prefix = f"ar~{user}~"
        return [
            key[len(prefix):]
            for key, active in ctx.scan_prefix(prefix)
            if active
        ]

    def fn_users_with_role(self, ctx: TxContext, role: str) -> list[str]:
        users = []
        for key, active in ctx.scan_prefix("ar~"):
            if not active:
                continue
            user, _, key_role = key[len("ar~"):].rpartition("~")
            if key_role == role:
                users.append(user)
        return users

    def fn_views_of_role(self, ctx: TxContext, role: str) -> list[str]:
        prefix = f"ap~{role}~"
        return [
            key[len(prefix):]
            for key, active in ctx.scan_prefix(prefix)
            if active
        ]

    def fn_users_with_access(self, ctx: TxContext, view: str) -> list[str]:
        """The join ``A_r ⋈ A_p`` projected on users, for one view."""
        roles = [
            key[len("ap~"):].rpartition("~")[0]
            for key, active in ctx.scan_prefix("ap~")
            if active and key.endswith(f"~{view}")
        ]
        users: set[str] = set()
        for role in roles:
            users.update(self.fn_users_with_role(ctx, role))
        return sorted(users)


@dataclass
class Role:
    """Off-chain record of one role: its identity and member set."""

    name: str
    members: set[str] = field(default_factory=set)
    #: Ids of on-chain key-distribution transactions (newest last).
    key_tx_ids: list[str] = field(default_factory=list)


class RBACAuthority:
    """Administers roles: keys, membership, and view permissions."""

    def __init__(self, gateway: Gateway):
        self.gateway = gateway
        self.msp = gateway.network.msp
        self._roles: dict[str, Role] = {}

    # -- role lifecycle ------------------------------------------------------

    def create_role(self, role_name: str) -> Role:
        """Create a role with a fresh keypair registered in the MSP."""
        if role_name in self._roles:
            raise AccessControlError(f"role {role_name!r} already exists")
        self.msp.register(role_principal(role_name))
        role = Role(name=role_name)
        self._roles[role_name] = role
        return role

    def role(self, role_name: str) -> Role:
        record = self._roles.get(role_name)
        if record is None:
            raise AccessControlError(f"unknown role {role_name!r}")
        return record

    # -- membership ---------------------------------------------------------------

    def add_member(self, role_name: str, user_id: str) -> None:
        """Add a user to a role: on-chain ``A_r`` plus role-key delivery."""
        role = self.role(role_name)
        self.gateway.invoke(
            CHAINCODE_NAME, "assign_role", {"user": user_id, "role": role_name}
        )
        role.members.add(user_id)
        # Each distribution covers the full member set, so the newest
        # distribution transaction alone is authoritative for "who holds
        # the current role key".
        self._distribute_key(role, set(role.members))

    def remove_member(self, role_name: str, user_id: str) -> None:
        """Remove a member: update ``A_r``, rotate the role key, and
        refresh grants on every view the role can access.

        Every view manager registered with the network is visited, so
        no caller can forget one; for each revocable view the view key
        is rotated too (the departed member knew the old one).
        """
        role = self.role(role_name)
        if user_id not in role.members:
            raise AccessControlError(
                f"user {user_id!r} is not a member of role {role_name!r}"
            )
        self.gateway.invoke(
            CHAINCODE_NAME, "unassign_role", {"user": user_id, "role": role_name}
        )
        role.members.discard(user_id)
        self.msp.reissue(role_principal(role_name))
        self._distribute_key(role, set(role.members))
        for manager in self.gateway.network.view_managers:
            self._refresh_grants(manager, role_name)

    def _refresh_grants(self, manager: ViewManager, role_name: str) -> None:
        principal = role_principal(role_name)
        for view_name in self.views_of_role(role_name):
            if view_name not in manager.buffer:
                continue
            record = manager.buffer.get(view_name)
            if principal not in record.authorized:
                continue
            if record.mode is ViewMode.REVOCABLE:
                manager.revoke_access(view_name, principal)
            manager.grant_access(view_name, principal)

    def _distribute_key(self, role: Role, recipients: set[str]) -> None:
        """Seal the role's private key to each recipient, on chain."""
        if not recipients:
            return
        role_user = self.msp.get(role_principal(role.name))
        material = role_user.keypair.private.to_bytes()
        sealed = {
            user_id: seal(self.msp.public_key_of(user_id), material).hex()
            for user_id in sorted(recipients)
        }
        notice = self.gateway.invoke(
            notary.CHAINCODE_NAME,
            "record",
            public={"role_key": role.name, "sealed": sealed},
        )
        role.key_tx_ids.append(notice.tid)

    # -- permissions -----------------------------------------------------------------

    def grant_view_to_role(
        self, manager: ViewManager, view_name: str, role_name: str
    ) -> None:
        """``A_p`` update plus the actual key grant to the role identity."""
        self.role(role_name)  # existence check
        self.gateway.invoke(
            CHAINCODE_NAME,
            "grant_permission",
            {"role": role_name, "view": view_name},
        )
        manager.grant_access(view_name, role_principal(role_name))

    def revoke_view_from_role(
        self, manager: ViewManager, view_name: str, role_name: str
    ) -> None:
        """Remove ``A_p`` entry and revoke the role's key grant."""
        self.gateway.invoke(
            CHAINCODE_NAME,
            "revoke_permission",
            {"role": role_name, "view": view_name},
        )
        manager.revoke_access(view_name, role_principal(role_name))

    # -- queries ---------------------------------------------------------------------

    def roles_of(self, user_id: str) -> list[str]:
        return self.gateway.query(CHAINCODE_NAME, "roles_of", {"user": user_id})

    def views_of_role(self, role_name: str) -> list[str]:
        return self.gateway.query(
            CHAINCODE_NAME, "views_of_role", {"role": role_name}
        )

    def users_with_access(self, view_name: str) -> list[str]:
        return self.gateway.query(
            CHAINCODE_NAME, "users_with_access", {"view": view_name}
        )

    # -- reader side -------------------------------------------------------------------

    def load_role_key(self, reader: ViewReader, role_name: str) -> None:
        """Let a reader recover the current role private key from chain.

        Walks the role's key-distribution transactions newest-first and
        opens the entry sealed for the reader's identity.

        Raises
        ------
        AccessControlError
            If the reader holds no current sealed copy (not a member).
        """
        role = self.role(role_name)
        chain = self.gateway.network.reference_peer.chain
        for tid in reversed(role.key_tx_ids):
            tx = chain.get_transaction(tid)
            sealed = tx.nonsecret.get("public", {}).get("sealed", {})
            entry = sealed.get(reader.user.user_id)
            if entry is None:
                break  # newest distribution excludes this user: removed
            material = open_sealed(reader.user.keypair.private, bytes.fromhex(entry))
            reader.role_keys[role_principal(role_name)] = RSAPrivateKey.from_bytes(
                material
            )
            return
        raise AccessControlError(
            f"user {reader.user.user_id!r} holds no current key for role "
            f"{role_name!r}"
        )
