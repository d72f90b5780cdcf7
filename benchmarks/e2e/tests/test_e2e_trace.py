"""The tracer's arithmetic on synthetic spans with a scripted clock."""

import pytest

import trace as tracing


def by_name(totals):
    """Totals summed over phases."""
    out = {}
    for names in totals.values():
        for name, row in names.items():
            into = out.setdefault(name, {"calls": 0, "self_s": 0.0, "units": 0.0})
            for field, value in row.items():
                into[field] += value
    return out


class Clock:
    """Returns scripted instants, one per call."""

    def __init__(self, *instants: float):
        self.instants = list(instants)

    def __call__(self) -> float:
        return self.instants.pop(0)


def test_self_times_of_nested_spans_sum_to_the_root():
    # root 0..10; a 1..4 holding b 2..3; c 5..9
    tracer = tracing.Tracer(clock=Clock(0, 1, 2, 3, 4, 5, 9, 10))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    totals = by_name(tracer.totals())
    assert totals["root"]["self_s"] == pytest.approx(3.0)
    assert totals["a"]["self_s"] == pytest.approx(2.0)
    assert totals["b"]["self_s"] == pytest.approx(1.0)
    assert totals["c"]["self_s"] == pytest.approx(4.0)
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(10.0)


def test_recursion_under_one_name_is_not_counted_twice():
    # outer 0..10 calls itself 2..7: the name's self time is the 10 s.
    tracer = tracing.Tracer(clock=Clock(0, 2, 7, 10))
    with tracer.span("f"):
        with tracer.span("f"):
            pass
    totals = by_name(tracer.totals())
    assert totals["f"]["calls"] == 2
    assert totals["f"]["self_s"] == pytest.approx(10.0)


def test_totals_are_filed_under_the_phase_a_span_ends_in():
    tracer = tracing.Tracer(clock=Clock(0, 1, 5, 8))
    tracer.phase = "setup"
    with tracer.span("keygen"):
        pass
    tracer.phase = "run"
    with tracer.span("keygen"):
        pass
    totals = tracer.totals()
    assert totals["setup"]["keygen"]["self_s"] == pytest.approx(1.0)
    assert totals["run"]["keygen"]["self_s"] == pytest.approx(3.0)
    assert by_name(totals)["keygen"]["calls"] == 2


def test_wrap_counts_calls_units_and_keeps_results():
    tracer = tracing.Tracer()

    def encrypt(_key, data):
        return data[::-1]

    traced = tracer.wrap("aes", encrypt, units_of=lambda _key, data: len(data))
    assert traced("k", b"abc") == b"cba"
    assert traced("k", b"abcde") == b"edcba"
    row = by_name(tracer.totals())["aes"]
    assert (row["calls"], row["units"]) == (2, 8)
    assert traced.__wrapped__ is encrypt


def test_wrap_closes_its_span_when_the_call_raises():
    tracer = tracing.Tracer()

    def fail():
        raise KeyError("x")

    with tracer.span("root"):
        with pytest.raises(KeyError):
            tracer.wrap("f", fail)()
        with tracer.span("after"):
            pass
    # "after" is a child of root, not of the failed call.
    assert {span for span in by_name(tracer.totals())} == {"root", "f", "after"}


def test_a_drained_generator_does_its_work_inside_the_span():
    # root 0..4; scan 1..3, its body runs at 2
    tracer = tracing.Tracer(clock=Clock(0, 1, 2, 3, 4))
    ticks = []

    def scan():
        ticks.append(tracer.clock())
        yield "k1"
        yield "k2"

    traced = tracer.wrap("scan", scan, drain=True)
    with tracer.span("root"):
        assert list(traced()) == ["k1", "k2"]
    assert ticks == [2]
    assert by_name(tracer.totals())["scan"]["self_s"] == pytest.approx(2.0)


def test_spans_of_one_transaction_in_a_hundred_are_kept_whole():
    tracer = tracing.Tracer()
    traced = tracer.wrap("endorse", lambda tid: tid, tid_of=lambda tid: tid)
    inner = tracer.wrap("serialize", lambda: None)

    def endorse_and_serialize(tid):
        with tracer.span("outer", tid=tid):
            inner()  # inherits the tid of the span it runs in

    for number in range(300):
        traced(f"tx-{number:08d}")
    endorse_and_serialize("tx-00000100")
    endorse_and_serialize("tx-00000101")
    kept = [(span[0], span[4]) for span in tracer.spans]
    assert [tid for name, tid in kept if name == "endorse"] == [
        "tx-00000000",
        "tx-00000100",
        "tx-00000200",
    ]
    assert ("serialize", "tx-00000100") in kept
    assert ("serialize", "tx-00000101") not in kept
    serialize = next(span for span in tracer.spans if span[0] == "serialize")
    assert serialize[3] == "outer"  # the span that caused it
