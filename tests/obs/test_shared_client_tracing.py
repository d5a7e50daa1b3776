"""Spans ride the process, not the client: one :class:`ServiceClient`
shared by concurrent traced flows gives each flow a tree of its own."""

from repro.core.policy import CallPolicy
from repro.lang import ACECmdLine
from tests.obs.test_tracing_end_to_end import make_echo_ace


def test_two_traced_flows_on_one_client_keep_disjoint_trees():
    ace, echo = make_echo_ace()
    client = ace.client()
    policy = CallPolicy(deadline=5.0, attempt_timeout=2.0, max_attempts=1)
    roots = {}

    def flow(name, delay):
        root = roots[name] = client.begin_trace(name)
        try:
            for text in ("a", "b"):
                yield from client.call(
                    echo.address,
                    ACECmdLine("slowEcho", text=text, delay=delay),
                    policy=policy,
                )
        finally:
            client.end_trace(root)
        assert client.current_span() is None   # the process's span is back

    def both():
        yield ace.sim.all_of([
            ace.sim.process(flow("first", 0.02)),
            ace.sim.process(flow("second", 0.03)),
        ])

    ace.run(both())
    tracer = ace.ctx.obs.tracer
    for root in roots.values():
        spans = tracer.spans_for(root.trace_id)
        ids = {span.span_id: span for span in spans}
        assert [s for s in spans if not s.parent_id] == [root]
        rpcs = [s for s in spans if s.name.startswith("rpc:")]
        calls = [s for s in spans if s.name.startswith("call:")]
        assert len(rpcs) == 2 and len(calls) == 2
        assert all(s.parent_id == root.span_id for s in rpcs)
        assert all(ids[s.parent_id].name.startswith("rpc:") for s in calls)
        assert all(s.parent_id in ids for s in spans if s.span_id != root.span_id)
