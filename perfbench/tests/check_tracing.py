"""Tracing wrappers and self-time arithmetic.

    python -m pytest perfbench/tests/check_*.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import tracing  # noqa: E402
from gfstore import stats  # noqa: E402
from gfstore.errors import ChannelMismatch  # noqa: E402


def originals():
    out = {}
    for modname, path in tracing.TRACED:
        owner, attr = tracing._resolve(modname, path)
        out[(modname, path)] = (owner, attr, vars(owner)[attr])
    return out


def assert_restored(before):
    for owner, attr, original in before.values():
        assert vars(owner)[attr] is original, attr


def test_install_patches_and_restores_every_attribute():
    before = originals()
    with tracing.Tracer() as tr:
        tracing.install(tr)
        for owner, attr, original in before.values():
            assert vars(owner)[attr] is not original, attr
    assert_restored(before)


def test_restore_after_a_traced_call_raises():
    before = originals()
    a = stats.point_sample([1.0], 0)
    b = stats.point_sample([1.0, 2.0], 1)
    with pytest.raises(ChannelMismatch):
        with tracing.Tracer() as tr:
            tracing.install(tr)
            stats.merge(a, b)
    assert_restored(before)
    calls, _ = tr.span_totals()["stats.merge"]
    assert calls == 1
    assert not tr._spans().stack  # the span was closed on the way out


def test_restore_removes_a_patch_of_an_inherited_attribute():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    with tracing.Tracer() as tr:
        tr.patch(Child, "f", "child.f")
        assert "f" in vars(Child)
        assert Child().f() == 1
    assert "f" not in vars(Child)
    assert Child.f is Base.f


def test_self_times_on_nested_spans():
    # root [0,10] has children a [1,4], b [3,6] (overlapping a) and c [8,12]
    # (sticking out of root); a has child d [2,3].  Listed in start order.
    starts = [0.0, 1.0, 2.0, 3.0, 8.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    got = list(tracing.self_times(starts, ends, parents))
    # root: 10 minus union [1,6] and [8,10] = 3; a: 3 - 1 = 2; d: 1; b: 3; c: 4
    assert got == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_self_times_of_traced_calls_add_up_to_the_outer_duration():
    tr = tracing.Tracer()

    def inner():
        return sum(range(20000))

    traced_inner = tr.traced("inner", inner)

    def outer():
        return [traced_inner() for _ in range(3)]

    tr.traced("outer", outer)()
    spans = tr._spans()
    totals = tr.span_totals()
    assert totals["inner"][0] == 3 and totals["outer"][0] == 1
    outer_duration = spans.ends[0] - spans.starts[0]
    assert totals["outer"][1] + totals["inner"][1] == pytest.approx(outer_duration, rel=1e-9)
    assert 0 < totals["outer"][1] < outer_duration


def test_labels_and_counters():
    with tracing.Tracer() as tr:
        tracing.install(tr)
        from gfstore import container, service
        from gfstore.record import SummaryRecord

        rec = SummaryRecord(budget=8)
        rec.ingest_block(np.arange(40.0))
        svc = service.QueryService(rec)
        assert svc.handle_line('{"op": "member", "value": [3.0]}')["ok"]
        assert svc.handle_line('{"op": "member", "value": [99.0]}')["ok"]
        blob = container.write(rec)
    m = tracing.layer_metrics(tr)
    assert m["service.handle_line.member.calls"] == 2
    assert m["index.build.calls"] == 2
    assert m["index.absent_certain_ratio"] == 0.5
    assert m["stats.merge.calls"] >= 32
    assert m["container.provenance_events"] == len(rec.provenance)
    assert m["container.manifest_bytes"] + m["container.data_bytes"] + 24 == len(blob)
