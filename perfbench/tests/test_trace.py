"""Self-time arithmetic of the span tracer."""

import pytest

from perfbench.trace import ROOT, Target, Tracer, layer_table, root_seconds, self_times


def test_nested_spans_subtract_children():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == pytest.approx(
        [10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0, 4.0]
    )


def test_overlapping_children_count_once_and_clip_to_parent():
    # Children [1, 5] and [3, 7] overlap on [3, 5]; [8, 12] sticks out
    # of the parent [0, 10] and covers only [8, 10].
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 5.0, 7.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_children_in_any_order():
    starts = [0.0, 6.0, 1.0]
    ends = [10.0, 8.0, 2.0]
    parents = [-1, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(7.0)


def test_self_times_sum_to_root_duration():
    tracer = Tracer()

    def inner():
        return sum(range(1000))

    class Owner:
        pass

    Owner.inner = inner
    tracer.install([Target(Owner, "inner", "fabric.run", "simnet.fabric")])
    try:
        root = tracer.begin(ROOT)
        for _ in range(5):
            Owner.inner()
        tracer.finish(root)
    finally:
        tracer.uninstall()
    assert Owner.__dict__["inner"] is inner
    totals = tracer.by_name()
    assert totals["fabric.run"][0] == 5
    host = root_seconds(tracer)
    assert sum(s for _, s in totals.values()) == pytest.approx(host)
    shares = {row["layer"]: row["share"] for row in layer_table(totals, host, tracer.layer_of)}
    assert sum(shares.values()) == pytest.approx(1.0)
    assert set(shares) == {"bench", "simnet.fabric"}
