"""Tracer / SpanTree / critical-path unit tests (deterministic clock)."""

import random

from repro.obs import SERVER, SpanTree, Tracer, critical_path, critical_path_rows


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make_tracer(**kw):
    clock = FakeClock()
    return Tracer(clock, **kw), clock


def test_ids_are_deterministic_counters():
    tracer, clock = make_tracer()
    root = tracer.start_trace("req", "cli")
    child = tracer.start_span("hop", "svc", root, kind=SERVER)
    assert (root.trace_id, root.span_id) == ("t1", "s1")
    assert (child.trace_id, child.span_id, child.parent_id) == ("t1", "s2", "s1")
    clock.t = 0.5
    tracer.finish(child)
    tracer.finish(root)
    assert [s.span_id for s in tracer.spans_for("t1")] == ["s2", "s1"]


def test_disabled_tracer_returns_none_everywhere():
    tracer, _ = make_tracer(enabled=False)
    assert tracer.start_trace("req", "cli") is None
    assert tracer.start_span("hop", "svc", None) is None
    assert tracer.finish(None) is None
    assert tracer.spans == []


def test_sampling_gates_roots_only():
    tracer, _ = make_tracer(sample_rate=0.5, rng=random.Random(7))
    decisions = [tracer.start_trace("req", "cli") is not None for _ in range(200)]
    kept = sum(decisions)
    assert 60 < kept < 140  # ~50%
    # A sampled root's children are always created; an unsampled root
    # yields parent=None so children short-circuit to None.
    root = next(s for s in (tracer.start_trace("req", "cli") for _ in range(50)) if s)
    assert tracer.start_span("hop", "svc", root) is not None
    assert tracer.start_span("hop", "svc", None) is None


def test_span_cap_drops_oldest_decile():
    tracer, _ = make_tracer(max_spans=100)
    for i in range(101):
        tracer.finish(tracer.start_trace(f"r{i}", "cli"))
    assert len(tracer.spans) == 91  # 100 capped -> drop 10, append 1
    assert tracer.dropped == 10
    assert tracer.spans[0].name == "r10"


def test_tree_walk_orders_siblings_by_start():
    tracer, clock = make_tracer()
    root = tracer.start_trace("req", "cli")
    clock.t = 1.0
    first = tracer.start_span("a", "svc", root)
    clock.t = 2.0
    second = tracer.start_span("b", "svc", root)
    clock.t = 3.0
    for span in (second, first, root):
        tracer.finish(span)
    tree = tracer.tree("t1")
    assert tree.hops() == ["req", "a", "b"]
    assert tree.depth() == 2
    assert tree.root is not None and tree.root.name == "req"
    assert "req @cli" in tree.render()


def test_critical_path_follows_last_finisher():
    tracer, clock = make_tracer()
    root = tracer.start_trace("req", "cli")
    clock.t = 0.1
    quick = tracer.start_span("quick", "svc1", root)
    clock.t = 0.2
    tracer.finish(quick)
    slow = tracer.start_span("slow", "svc2", root)
    clock.t = 0.9
    inner = tracer.start_span("inner", "svc2", slow)
    clock.t = 1.0
    tracer.finish(inner)
    tracer.finish(slow)
    clock.t = 1.1
    tracer.finish(root)
    hops = critical_path(tracer.tree("t1"))
    assert [h.span.name for h in hops] == ["req", "slow", "inner"]
    # Self time: root 1.1 total - 0.8 slow = 0.3; slow 0.8 - 0.1 inner = 0.7.
    assert abs(hops[0].self_time - 0.3) < 1e-9
    assert abs(hops[1].self_time - 0.7) < 1e-9
    assert abs(hops[2].self_time - 0.1) < 1e-9
    rows = critical_path_rows(tracer.tree("t1"))
    assert rows[0][0] == "req" and rows[1][1] == "svc2"


def test_critical_path_empty_tree():
    assert critical_path(SpanTree([])) == []


def test_status_and_annotations_render():
    tracer, clock = make_tracer()
    root = tracer.start_trace("req", "cli")
    clock.t = 0.4
    tracer.finish(root, status="cmdFailed", retries=2)
    tree = tracer.tree("t1")
    rendered = tree.render()
    assert "!cmdFailed" in rendered and "retries=2" in rendered
    rows = critical_path_rows(tree)
    assert "status=cmdFailed" in rows[0][4] and "retries=2" in rows[0][4]
