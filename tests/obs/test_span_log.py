"""``SpanLog``: the tracer's finished spans, kept as columns.

It reads like a list of spans (length, negative indices, lazy nested
slices, equality with a list), hands annotations back with their types,
keeps the newest spans with their annotations aligned under the cap, and
filing a span leaves no object behind for the cyclic collector.
"""

import gc

import pytest

from repro.obs import Tracer
from repro.obs.tracer import Span, SpanLog


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def filed(n, **kw):
    """A tracer with ``n`` finished roots ``r0`` .. ``r<n-1>``, each
    annotated with its index."""
    clock = FakeClock()
    tracer = Tracer(clock, **kw)
    for i in range(n):
        clock.t = float(i)
        root = tracer.start_trace(f"r{i}", "cli", index=i)
        clock.t = i + 0.5
        tracer.finish(root)
    return tracer


def test_length_and_indexing_read_like_a_list():
    log = filed(5).spans
    assert isinstance(log, SpanLog) and len(log) == 5
    assert [log[i].name for i in (0, 4, -1, -5)] == ["r0", "r4", "r4", "r0"]
    for bad in (5, -6):
        with pytest.raises(IndexError):
            log[bad]
    with pytest.raises(IndexError):
        SpanLog()[0]


def test_every_read_is_a_fresh_span_with_no_outer():
    tracer = filed(1)
    first, again = tracer.spans[0], tracer.spans[0]
    assert first == again and first is not again
    assert first.outer is None
    assert first.finished and first.duration == 0.5


def test_slices_are_lazy_views_and_nest():
    log = filed(10).spans
    view = log[2:9]
    assert not isinstance(view, list) and len(view) == 7
    inner = view[1:-1:2]
    assert [s.name for s in inner] == ["r3", "r5", "r7"]
    assert inner[-1].name == "r7" and len(inner[1:]) == 2
    with pytest.raises(IndexError):
        inner[3]
    # a view reads the log when it is read, not when it was taken
    assert log[10:] == []
    tail = log[8:]
    assert [s.name for s in tail] == ["r8", "r9"]


def test_equality_with_a_list():
    tracer = filed(3)
    assert tracer.spans == list(tracer.spans)
    assert tracer.spans[1:] == list(tracer.spans)[1:]
    assert tracer.spans != list(tracer.spans)[:2]
    assert Tracer(FakeClock(), enabled=False).spans == []
    assert (tracer.spans == "abc") is False


def test_annotations_come_back_with_their_types():
    tracer = Tracer(FakeClock())
    span = tracer.start_trace("req", "cli", count=3, ratio=0.25)
    span.annotate(label="x|y", none=None)
    tracer.finish(span, status="cmdFailed", extra=7)
    bare = tracer.start_trace("bare", "cli")
    tracer.finish(bare)
    got, empty = tracer.spans
    assert got.annotations == {"count": 3, "ratio": 0.25, "label": "x|y",
                               "none": None, "extra": 7}
    assert [type(v) for v in got.annotations.values()] == \
        [int, float, str, type(None), int]
    assert got.status == "cmdFailed" and empty.annotations == {}


def test_the_cap_keeps_the_newest_with_their_annotations():
    tracer = filed(101, max_spans=100)
    log = tracer.spans
    assert len(log) == 91 and tracer.dropped == 10
    assert [s.annotations["index"] for s in log] == list(range(10, 101))
    assert all(s.name == f"r{s.annotations['index']}" for s in log)
    assert len(log.note_keys) == len(log.note_values) == log.note_ends[-1] == 91


def test_a_view_of_spans_the_cap_dropped_raises():
    clock = FakeClock()
    tracer = Tracer(clock, max_spans=10)
    for i in range(10):
        tracer.finish(tracer.start_trace(f"r{i}", "cli"))
    old = tracer.spans[:3]
    tracer.finish(tracer.start_trace("r10", "cli"))   # drops r0
    assert old[1].name == "r1"
    with pytest.raises(IndexError):
        old[0]


def test_spans_for_returns_one_trace_in_filing_order():
    clock = FakeClock()
    tracer = Tracer(clock)
    a, b = tracer.start_trace("a", "cli"), tracer.start_trace("b", "cli")
    a1 = tracer.start_span("a1", "svc", a)
    b1 = tracer.start_span("b1", "svc", b)
    a2 = tracer.start_span("a2", "svc", a1)
    for span in (b1, a2, a1, b, a):
        tracer.finish(span)
    assert [s.name for s in tracer.spans_for(a.trace_id)] == ["a2", "a1", "a"]
    assert [s.name for s in tracer.spans_for(b.trace_id)] == ["b1", "b"]
    assert tracer.spans_for("t99") == []
    assert tracer.tree(a.trace_id).hops() == ["a", "a1", "a2"]
    assert all(isinstance(s, Span) for s in tracer.spans_for(a.trace_id))


def test_filed_spans_leave_nothing_for_the_collector():
    clock = FakeClock()
    tracer = Tracer(clock)
    gc.collect()
    before = len(gc.get_objects())
    for i in range(2500):
        clock.t = float(i)
        root = tracer.start_trace("req", "cli", index=i)
        child = tracer.start_span("hop", "svc", root, queue_wait_ms=0.5)
        tracer.finish(child)
        tracer.finish(root, status="ok")
    del root, child
    gc.collect()
    assert len(tracer.spans) == 5000
    assert len(gc.get_objects()) - before < 50
