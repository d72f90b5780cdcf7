"""The schedules: seeded, exact in their mix, free of policy errors."""

import random

import loadgen

VIEWS = [f"V{i}" for i in range(4)]
PRINCIPALS = {view: [f"{view}-a", f"{view}-b"] for view in VIEWS}


def _plan(seed, count=400):
    return loadgen.view_mix_schedule(seed, 40, count, 8, 1000.0, VIEWS, PRINCIPALS)


def test_due_times_are_sorted_and_fill_the_span():
    due = loadgen.poisson_due_times(random.Random(3), 50.0, 500, 2000.0)
    assert len(due) == 500 and due == sorted(due)
    assert 2000.0 <= due[0] and due[-1] <= 2000.0 + 10_000.0
    assert due[-1] > 2000.0 + 9_000.0


def test_the_seed_changes_the_schedule_and_nothing_else_does():
    a = loadgen.counter_schedule(1, 100, 50, 8, 0.0, "r100")
    b = loadgen.counter_schedule(1, 100, 50, 8, 0.0, "r100")
    c = loadgen.counter_schedule(2, 100, 50, 8, 0.0, "r100")
    assert [r.arrival_ms for r in a] == [r.arrival_ms for r in b]
    assert [r.arrival_ms for r in a] != [r.arrival_ms for r in c]
    assert [r.payload for r in a] == [r.payload for r in c]
    assert len({r.payload["key"] for r in a}) == 50  # conflict-free
    assert [r.session for r in a[:9]] == [0, 1, 2, 3, 4, 5, 6, 7, 0]


def test_view_mix_is_exact_per_block_of_forty():
    kinds = [r.kind for r in _plan(5).requests]
    for start in range(0, 400, 40):
        block = kinds[start : start + 40]
        assert block.count("invoke") == 32
        assert block.count("audit") == 6
        assert block.count("grant") + block.count("revoke") == 2
    assert [r.kind for r in _plan(6).requests] != kinds


def test_view_mix_served_in_order_has_no_policy_error():
    plan = _plan(7, count=2000)
    authorized = {view: set(names) for view, names in PRINCIPALS.items()}
    due_of = {}
    revoked = None
    for request in plan.requests:
        payload = request.payload
        if request.kind == "invoke":
            due_of[payload["tid"]] = (request.arrival_ms, payload["public"]["view"])
        elif request.kind == "audit":
            assert payload["principal"] in authorized[payload["view"]]
            assert len(payload["tids"]) <= loadgen.READ_WINDOW
            for tid in payload["tids"]:
                due, view = due_of[tid]
                assert view == payload["view"]
                assert due <= request.arrival_ms - loadgen.READ_LAG_MS
        elif request.kind == "revoke":
            assert revoked is None
            assert payload["principal"] in authorized[payload["view"]]
            authorized[payload["view"]].discard(payload["principal"])
            assert authorized[payload["view"]], "a view lost its last reader"
            revoked = (payload["view"], payload["principal"])
        else:
            assert request.kind == "grant"
            assert revoked == (payload["view"], payload["principal"])
            authorized[payload["view"]].add(payload["principal"])
            revoked = None
    assert authorized == plan.authorized
    assert any(r.kind == "audit" and r.payload["tids"] for r in plan.requests)


def test_item_batches_close_on_size_and_on_a_repeated_item():
    class Request:
        def __init__(self, item):
            self.item = item

    trace = [Request(i) for i in "abcabdd"]
    batches = [[r.item for r in b] for b in loadgen.item_batches(trace, 4)]
    assert batches == [["a", "b", "c"], ["a", "b", "d"], ["d"]]
    sizes = [len(b) for b in loadgen.item_batches([Request(i) for i in range(10)], 4)]
    assert sizes == [4, 4, 2]
