"""Self-time arithmetic and the wrapping mechanics of the tracer."""

import types

import pytest

from bofl_bench.tracer import (
    ROOT,
    Span,
    Tracer,
    layer_self_times,
    name_self_times,
    self_times,
    union_length,
)


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def span(id_, parent, name, start, end):
    return Span(id=id_, parent=parent, op=0, name=name, start=start, end=end)


def test_union_merges_overlaps_and_clips_to_parent():
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert union_length([(-2, 1), (9, 12)], 0, 10) == pytest.approx(2.0)
    assert union_length([(1, 2), (1, 2)], 0, 10) == pytest.approx(1.0)
    assert union_length([], 0, 10) == 0.0
    assert union_length([(11, 12)], 0, 10) == 0.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        span(0, -1, "root", 0.0, 10.0),
        span(1, 0, "a", 1.0, 5.0),
        span(2, 1, "b", 2.0, 4.0),  # grandchild: counts against "a" only
        span(3, 0, "c", 6.0, 7.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_uses_the_union_of_overlapping_children():
    spans = [
        span(0, -1, "root", 0.0, 10.0),
        span(1, 0, "x", 1.0, 4.0),
        span(2, 0, "y", 3.0, 6.0),  # overlaps x by one second
        span(3, 0, "z", 3.5, 5.0),  # inside y
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0)


def test_busy_time_is_charged_to_the_enclosing_span():
    spans = [span(0, -1, "root", 0.0, 10.0), span(1, 0, "a", 2.0, 6.0)]
    own = self_times(spans, {1: 1.5})
    assert own[1] == pytest.approx(2.5)
    assert own[0] == pytest.approx(6.0)


def test_layer_self_times_sum_to_the_root_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    work = types.SimpleNamespace()

    def job():
        clock.now += 0.25

    def round_():
        clock.now += 1.0
        work.job()
        work.job()
        clock.now += 0.5

    def plan():
        clock.now += 2.0
        work.round()

    work.job, work.round, work.plan = job, round_, plan
    tracer.wrap(work, "job", "hardware.job", busy=True)
    tracer.wrap(work, "round", "core.round")
    tracer.wrap(work, "plan", "ilp.plan")
    with tracer.span(ROOT):
        clock.now += 3.0
        work.plan()
        work.round()
    tracer.uninstall()

    names = name_self_times(tracer)
    assert names["hardware.job"] == pytest.approx(1.0)
    layers = layer_self_times(names)
    assert layers == pytest.approx(
        {"remainder": 3.0, "ilp": 2.0, "core": 3.0, "hardware": 1.0}
    )
    assert sum(layers.values()) == pytest.approx(clock.now)
    assert tracer.busy["hardware.job"][0] == 4
    # Each direct child of the root starts the next operation.
    assert [s.op for s in tracer.spans if s.name == "ilp.plan"] == [1]
    assert sorted(s.op for s in tracer.spans if s.name == "core.round") == [1, 2]


class Planner:
    def plan(self, x):
        return x * 2

    def check(self, x):
        if x < 0:
            raise ValueError(x)
        return x >= 0


def test_wrap_keeps_behaviour_and_uninstall_restores_it():
    originals = dict(vars(Planner))
    tracer = Tracer()
    seen = []
    tracer.wrap(Planner, "plan", "core.plan", after=lambda a, k, r: seen.append((a[1:], r)))
    tracer.wrap(Planner, "check", "core.check")
    with tracer.span(ROOT):
        assert Planner().plan(3) == 6
        assert Planner().check(2) is True
        with pytest.raises(ValueError):
            Planner().check(-1)
    tracer.uninstall()
    assert seen == [((3,), 6)]
    assert tracer.counts["core.check.errors"] == 1
    assert [s.name for s in tracer.spans].count("core.check") == 2
    for name in ("plan", "check"):
        assert vars(Planner)[name] is originals[name]


def test_write_jsonl_round_trips(tmp_path):
    import json

    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span(ROOT):
        with tracer.span("sim.campaign"):
            clock.now += 1.0
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0] == {"id": 0, "parent": -1, "op": 0, "name": ROOT, "start": 0.0, "end": 1.0}
    assert rows[1]["parent"] == 0 and rows[1]["op"] == 1
