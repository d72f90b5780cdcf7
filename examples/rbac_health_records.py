"""Role-based access control over health records (paper §4.5-4.6).

Health records are the paper's canonical *revocable* use case: access
should be revocable from healthcare workers who retire, while new hires
need access to records stored before they joined.  Roles make this
manageable: permissions attach to the role ("nurse", "auditor"), users
come and go, and key rotation handles departures.

Run with::

    python examples/rbac_health_records.py
"""

from repro import (
    Gateway,
    HashBasedManager,
    RBACAuthority,
    ViewMode,
    ViewReader,
    build_network,
)
from repro.errors import AccessControlError, AccessDeniedError
from repro.views.predicates import AttributeEquals
from repro.views.rbac import role_principal


def main() -> None:
    network = build_network()
    hospital = network.register_user("hospital")  # view owner
    admin = network.register_user("rbac-admin")
    staff = {
        name: network.register_user(name)
        for name in ("nurse-ana", "nurse-ben", "nurse-chloe")
    }

    manager = HashBasedManager(Gateway(network, hospital))
    authority = RBACAuthority(Gateway(network, admin))

    # A view of all records of Ward 3, revocable by design.
    manager.create_view(
        "ward-3-records", AttributeEquals("ward", "Ward 3"), ViewMode.REVOCABLE
    )

    # Store some records; the medical details are the secret part.
    records = []
    for i, details in enumerate(
        (b'{"patient":"P-17","diagnosis":"fracture"}',
         b'{"patient":"P-21","diagnosis":"asthma"}')
    ):
        outcome = manager.invoke_with_secret(
            fn="create_item",
            args={"item": f"record-{i}", "owner": "Ward 3"},
            public={"item": f"record-{i}", "ward": "Ward 3", "to": "Ward 3"},
            secret=details,
        )
        records.append(outcome)
    print(f"stored {len(records)} records; secrets hashed on chain")

    # Create the nurse role, add members, grant the view to the role.
    authority.create_role("nurse")
    authority.add_member("nurse", "nurse-ana")
    authority.add_member("nurse", "nurse-ben")
    authority.grant_view_to_role(manager, "ward-3-records", "nurse")
    print("role 'nurse' created; ana and ben are members; view granted to role")
    print("on-chain join A_r ⋈ A_p:", authority.users_with_access("ward-3-records"))

    # Ana reads via the role key (one grant serves the whole role).
    ana = ViewReader(staff["nurse-ana"], Gateway(network, staff["nurse-ana"]))
    authority.load_role_key(ana, "nurse")
    result = ana.read_view(manager, "ward-3-records")
    print(f"ana reads {len(result.secrets)} records through the nurse role")

    # A new hire joins later and still sees the *old* records — the key
    # dissemination problem channels cannot solve.
    authority.add_member("nurse", "nurse-chloe")
    chloe = ViewReader(staff["nurse-chloe"], Gateway(network, staff["nurse-chloe"]))
    authority.load_role_key(chloe, "nurse")
    result = chloe.read_view(manager, "ward-3-records")
    assert len(result.secrets) == len(records)
    print("new hire chloe reads all pre-existing records")

    # Ben retires: membership change rotates the role key AND the view
    # key of every revocable view the role can access.
    authority.remove_member("nurse", "nurse-ben")
    print("ben retired: role key and ward-3 view key rotated")

    ben = ViewReader(staff["nurse-ben"], Gateway(network, staff["nurse-ben"]))
    try:
        authority.load_role_key(ben, "nurse")
    except AccessControlError:
        print("ben can no longer obtain the role key")
    # Even with his stale role key, the view key has moved on.
    try:
        ben.role_keys[role_principal("nurse")] = "stale"
        ben.obtain_view_key(
            "ward-3-records", manager.access_tx_ids["ward-3-records"]
        )
    except (AccessDeniedError, Exception):
        print("ben's stale credentials cannot recover the new view key")

    # Remaining staff are unaffected.
    authority.load_role_key(ana, "nurse")
    result = ana.read_view(manager, "ward-3-records")
    assert len(result.secrets) == len(records)
    print("ana still reads everything — done")


if __name__ == "__main__":
    main()
