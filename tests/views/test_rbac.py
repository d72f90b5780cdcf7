"""Tests for role-based access control over views (§4.6)."""

import pytest

from repro.errors import AccessControlError, AccessDeniedError, ChaincodeError
from repro.fabric.network import Gateway
from repro.faults.monitor import InvariantMonitor
from repro.views.encryption_based import EncryptionBasedManager
from repro.views.hash_based import HashBasedManager
from repro.views.manager import ViewReader
from repro.views.predicates import AttributeEquals
from repro.views.rbac import RBACAuthority, role_principal
from repro.views.types import ViewMode

SECRET = b'{"diagnosis":"sensitive"}'


@pytest.fixture
def world(network):
    """Authority + manager + three users + one populated view."""
    admin = network.register_user("admin")
    owner = network.register_user("owner")
    users = {
        name: network.register_user(name) for name in ("nurse1", "nurse2", "temp")
    }
    authority = RBACAuthority(Gateway(network, admin))
    manager = HashBasedManager(Gateway(network, owner))
    manager.create_view("records", AttributeEquals("to", "Ward"), ViewMode.REVOCABLE)
    outcome = manager.invoke_with_secret(
        "create_item",
        {"item": "rec1", "owner": "Ward"},
        {"item": "rec1", "from": None, "to": "Ward", "access": ["Ward"]},
        SECRET,
    )
    return network, authority, manager, users, outcome


def _reader(network, user, authority, role):
    reader = ViewReader(user, Gateway(network, user))
    authority.load_role_key(reader, role)
    return reader


def test_role_member_reads_via_role_key(world):
    network, authority, manager, users, outcome = world
    authority.create_role("nurse")
    authority.add_member("nurse", "nurse1")
    authority.grant_view_to_role(manager, "records", "nurse")
    reader = _reader(network, users["nurse1"], authority, "nurse")
    result = reader.read_view(manager, "records")
    assert result.secrets[outcome.tid] == SECRET


def test_query_view_requires_role_principal(world):
    """The owner's ACL names the role, not the user — query as the role."""
    network, authority, manager, users, _ = world
    authority.create_role("nurse")
    authority.add_member("nurse", "nurse1")
    authority.grant_view_to_role(manager, "records", "nurse")
    record = manager.buffer.get("records")
    assert role_principal("nurse") in record.authorized
    assert "nurse1" not in record.authorized


def test_on_chain_relations_join(world):
    network, authority, manager, users, _ = world
    authority.create_role("nurse")
    authority.create_role("auditor")
    authority.add_member("nurse", "nurse1")
    authority.add_member("nurse", "nurse2")
    authority.add_member("auditor", "temp")
    authority.grant_view_to_role(manager, "records", "nurse")
    assert authority.roles_of("nurse1") == ["nurse"]
    assert authority.views_of_role("nurse") == ["records"]
    assert authority.users_with_access("records") == ["nurse1", "nurse2"]


def test_non_member_cannot_load_role_key(world):
    network, authority, manager, users, _ = world
    authority.create_role("nurse")
    authority.add_member("nurse", "nurse1")
    reader = ViewReader(users["temp"], Gateway(network, users["temp"]))
    with pytest.raises(AccessControlError):
        authority.load_role_key(reader, "nurse")


def test_member_removal_rotates_role_key(world):
    """Regression: ``remove_member`` finds the view managers through the
    network.  When it rotated view keys only on managers its caller
    passed, a bare call left ``key_version`` at 0, the leaver's stale
    role key opening the current grant, and the remaining member denied
    ("holds no current grant")."""
    network, authority, manager, users, outcome = world
    authority.create_role("nurse")
    authority.add_member("nurse", "nurse1")
    authority.add_member("nurse", "nurse2")
    authority.grant_view_to_role(manager, "records", "nurse")

    leaver = _reader(network, users["nurse1"], authority, "nurse")
    stale_role_key = leaver.role_keys[role_principal("nurse")]

    authority.remove_member("nurse", "nurse1")
    assert manager.buffer.get("records").key_version == 1

    # Remaining member still reads (new role key + re-granted view key).
    stayer = _reader(network, users["nurse2"], authority, "nurse")
    assert stayer.read_view(manager, "records").secrets[outcome.tid] == SECRET
    # The removed member cannot reload the role key…
    with pytest.raises(AccessControlError):
        authority.load_role_key(leaver, "nurse")
    # …and the stale role key no longer opens the newest view grant.
    leaver.role_keys[role_principal("nurse")] = stale_role_key
    with pytest.raises(AccessDeniedError):
        leaver.obtain_view_key("records", manager.access_tx_ids["records"])
    InvariantMonitor(network).check()


def test_remove_member_rotates_view_key_for_revocable_views(world):
    network, authority, manager, users, _ = world
    authority.create_role("nurse")
    authority.add_member("nurse", "nurse1")
    authority.add_member("nurse", "nurse2")
    authority.grant_view_to_role(manager, "records", "nurse")
    version_before = manager.buffer.get("records").key_version
    authority.remove_member("nurse", "nurse1")
    assert manager.buffer.get("records").key_version == version_before + 1


def test_revoke_view_from_role(world):
    network, authority, manager, users, outcome = world
    authority.create_role("nurse")
    authority.add_member("nurse", "nurse1")
    authority.grant_view_to_role(manager, "records", "nurse")
    reader = _reader(network, users["nurse1"], authority, "nurse")
    assert reader.read_view(manager, "records").secrets

    authority.revoke_view_from_role(manager, "records", "nurse")
    assert authority.views_of_role("nurse") == []
    with pytest.raises(AccessDeniedError):
        reader.read_view(manager, "records")


def test_duplicate_role_rejected(world):
    _, authority, *_ = world
    authority.create_role("nurse")
    with pytest.raises(AccessControlError):
        authority.create_role("nurse")


def test_unknown_role_operations_rejected(world):
    network, authority, manager, users, _ = world
    with pytest.raises(AccessControlError):
        authority.add_member("ghost", "nurse1")
    with pytest.raises(AccessControlError):
        authority.grant_view_to_role(manager, "records", "ghost")
    authority.create_role("nurse")
    with pytest.raises(AccessControlError):
        authority.remove_member("nurse", "never-added")


def test_unassign_unheld_role_rejected_on_chain(world):
    network, authority, *_ = world
    authority.create_role("nurse")
    with pytest.raises(ChaincodeError):
        authority.gateway.invoke(
            "rbac", "unassign_role", {"user": "nurse1", "role": "nurse"}
        )


def test_irrevocable_view_grant_to_role(network):
    """RBAC composes with irrevocable views too (grant via role key,
    data read from chain)."""
    admin = network.register_user("admin")
    owner = network.register_user("owner")
    user = network.register_user("clerk")
    authority = RBACAuthority(Gateway(network, admin))
    manager = EncryptionBasedManager(Gateway(network, owner))
    manager.create_view("deeds", AttributeEquals("to", "Registry"), ViewMode.IRREVOCABLE)
    outcome = manager.invoke_with_secret(
        "create_item",
        {"item": "deed1", "owner": "Registry"},
        {"item": "deed1", "from": None, "to": "Registry", "access": ["Registry"]},
        b"deed-contents",
    )
    authority.create_role("registrar")
    authority.add_member("registrar", "clerk")
    authority.grant_view_to_role(manager, "deeds", "registrar")
    reader = ViewReader(user, Gateway(network, user))
    authority.load_role_key(reader, "registrar")
    result = reader.read_irrevocable_view(manager, "deeds")
    assert result.secrets[outcome.tid] == b"deed-contents"
