"""End-to-end causal tracing through real daemons.

Acceptance for E22(b): one client request produces a complete,
deterministic span tree — root count and hop ordering are asserted
exactly (same seed ⇒ same tree).
"""

import pytest

from repro.core.policy import CallPolicy, TransportError
from repro.lang import ACECmdLine
from repro.net import Address
from tests.core.conftest import AceFixture, EchoDaemon


def make_echo_ace(seed=0):
    ace = AceFixture(seed=seed).boot()
    host = ace.net.make_host("bar", room="hawk")
    echo = EchoDaemon(ace.ctx, "echo1", host, room="hawk")
    ace.add_daemon(echo)
    echo.start()
    ace.sim.run(until=ace.sim.now + 1.0)
    return ace, echo


def test_one_call_yields_client_and_server_spans():
    ace, echo = make_echo_ace()
    client = ace.client()

    def flow():
        root = client.begin_trace("demo")
        try:
            reply = yield from client.call(echo.address, ACECmdLine("echo", text="hi"))
            return root, reply
        finally:
            client.end_trace(root)

    root, reply = ace.run(flow())
    assert reply.str("text") == "hi"
    tree = ace.ctx.obs.tracer.tree(root.trace_id)
    assert len(tree.roots) == 1
    assert tree.hops() == ["demo", "call:echo", "serve:echo"]
    serve = tree.spans[-1]
    assert serve.source == "echo1"
    assert "queue_wait_ms" in serve.annotations
    assert serve.annotations["principal"] == "tester"
    # Client span fully covers the server span; root covers both.
    call = tree.spans[1]
    assert call.start <= serve.start and serve.end <= call.end <= tree.root.end


def test_span_tree_is_deterministic_across_runs():
    trees = []
    for _ in range(2):
        ace, echo = make_echo_ace(seed=42)
        client = ace.client()

        def flow():
            root = client.begin_trace("det")
            try:
                yield from client.call(echo.address, ACECmdLine("echo", text="x"))
                yield from client.call(echo.address, ACECmdLine("slowEcho", text="y", delay=0.01))
            finally:
                client.end_trace(root)
            return root

        root = ace.run(flow())
        tree = ace.ctx.obs.tracer.tree(root.trace_id)
        trees.append([(s.span_id, s.name, s.source, round(s.start, 9)) for _, s in tree.walk()])
    assert trees[0] == trees[1]


def test_notification_delivery_joins_the_trace():
    """Fan-out work spawned by a request (the §2.5 notification) inherits
    the request's span via the kernel's ambient context."""
    ace, echo = make_echo_ace()
    host2 = ace.net.make_host("baz", room="hawk")
    listener = EchoDaemon(ace.ctx, "echo2", host2, room="hawk")
    ace.add_daemon(listener)
    listener.start()
    ace.sim.run(until=ace.sim.now + 1.0)
    client = ace.client()

    def flow():
        yield from client.call(
            echo.address,
            ACECmdLine("addNotification", cmd="echo", listener="echo2",
                       host=host2.name, port=listener.port, callback="onEchoSeen"),
        )
        root = client.begin_trace("notified")
        try:
            yield from client.call(echo.address, ACECmdLine("echo", text="ping"))
        finally:
            client.end_trace(root)
        yield ace.sim.timeout(1.0)  # let the notification drain
        return root

    root = ace.run(flow())
    assert listener.seen_notifications
    tree = ace.ctx.obs.tracer.tree(root.trace_id)
    hops = tree.hops()
    assert hops[:3] == ["notified", "call:echo", "serve:echo"]
    assert "call:onEchoSeen" in hops and "serve:onEchoSeen" in hops
    # The delivery hangs off the *server* span that triggered it.
    serve = next(s for s in tree.spans if s.name == "serve:echo")
    deliver = next(s for s in tree.spans if s.name == "call:onEchoSeen")
    assert deliver.parent_id == serve.span_id


def test_policy_call_annotates_retries():
    ace, _ = make_echo_ace()
    client = ace.client()
    dead = Address("bar", 59999)
    policy = CallPolicy(deadline=10.0, attempt_timeout=1.0, max_attempts=3,
                        backoff_base=0.01, backoff_max=0.02, breaker_threshold=0)

    def flow():
        root = client.begin_trace("flaky")
        try:
            yield from client.call(dead, ACECmdLine("echo", text="x"), policy=policy)
        except TransportError:
            pass
        finally:
            client.end_trace(root, status="gave-up")
        return root

    root = ace.run(flow())
    rpc = next(s for s in ace.ctx.obs.tracer.spans_for(root.trace_id) if s.name == "rpc:echo")
    assert rpc.status == "transport-error"
    assert rpc.annotations["attempts"] == 3
    assert rpc.annotations["retries"] == 2


def test_untraced_requests_record_nothing():
    ace, echo = make_echo_ace()
    client = ace.client()
    before = len(ace.ctx.obs.tracer.spans)

    def flow():
        reply = yield from client.call(echo.address, ACECmdLine("echo", text="quiet"))
        return reply

    ace.run(flow())
    assert len(ace.ctx.obs.tracer.spans) == before
