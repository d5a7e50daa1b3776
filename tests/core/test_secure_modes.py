"""End-to-end security integration (Chapter 3, Fig. 10).

Builds an ACE in each security mode and verifies: encrypted channels,
attach signature checking, KeyNote authorization with AuthDB-stored
credentials, and denial paths.
"""

import random

import pytest

from repro.core import CallError, CallPolicy, DaemonContext, ServiceClient, TransportError
from repro.core.client import FAILOVER_POLICY
from repro.core.context import SecurityMode
from repro.lang import ACECmdLine
from repro.net import HandshakeError, Network
from repro.net.address import WellKnownPorts
from repro.net.secure import _Record
from repro.security.crypto import CertificateAuthority, KeyPair
from repro.security.keynote import Assertion
from repro.services.asd import ServiceDirectoryDaemon
from repro.services.authdb import AuthorizationDatabaseDaemon, encode_credential
from repro.services.printer import PrinterDaemon, TaskAutomationDaemon
from repro.sim import RngRegistry, Simulator

from tests.core.conftest import EchoDaemon


def build_secure_ace(mode: SecurityMode):
    sim = Simulator()
    rng = RngRegistry(7)
    net = Network(sim, rng)
    ctx = DaemonContext(sim=sim, net=net, rng=rng)
    ctx.security.mode = mode
    ctx.security.ca = CertificateAuthority(rng.py("ca"))
    infra = net.make_host("infra", room="machineroom")
    ctx.default_bootstrap("infra")
    asd = ServiceDirectoryDaemon(ctx, "asd", infra, port=WellKnownPorts.ASD)
    authdb = AuthorizationDatabaseDaemon(ctx, "authdb", infra, port=WellKnownPorts.AUTH_DB)
    bar = net.make_host("bar", room="hawk")
    echo = EchoDaemon(ctx, "echo1", bar, room="hawk")
    # Policy: services themselves are trusted for everything in the ACE.
    service_principals = " || ".join(
        f'"{d.keypair.principal()}"' for d in (asd, authdb, echo) if d.keypair
    )
    if service_principals:
        ctx.security.policies.append(
            Assertion("POLICY", service_principals, 'app_domain == "ace"')
        )
    for daemon in (asd, authdb, echo):
        daemon.start()
    sim.run(until=2.0)
    return sim, net, ctx, asd, authdb, echo


def make_user(ctx, name, authdb, admin_kp=None, allowed_command=None):
    """Register a user principal; optionally grant a credential chain."""
    kp = KeyPair.generate(ctx.rng.py(f"user.{name}"))
    ctx.security.register_principal(kp.principal(), kp.public)
    if admin_kp is not None and allowed_command is not None:
        cred = Assertion(
            admin_kp.principal(),
            f'"{kp.principal()}"',
            f'command == "{allowed_command}" -> "permit";',
        ).sign(admin_kp)
        authdb._credentials.setdefault(kp.principal(), []).append(cred.to_text())
    return kp


def test_ssl_mode_encrypts_and_serves():
    sim, net, ctx, asd, authdb, echo = build_secure_ace(SecurityMode.SSL)

    def scenario():
        client = ServiceClient(ctx, net.host("infra"), principal="user:alice")
        reply = yield from client.call(echo.address, ACECmdLine("echo", text="hi"))
        return reply

    reply = sim.run_process(scenario(), timeout=30.0)
    assert reply["text"] == "hi"


def test_ssl_keynote_denies_without_credentials():
    sim, net, ctx, asd, authdb, echo = build_secure_ace(SecurityMode.SSL_KEYNOTE)
    alice = make_user(ctx, "alice", authdb)  # no credentials granted

    def scenario():
        client = ServiceClient(
            ctx, net.host("infra"), principal=alice.principal(), keypair=alice
        )
        with pytest.raises(CallError, match="permission denied"):
            yield from client.call(echo.address, ACECmdLine("echo", text="hi"))

    sim.run_process(scenario(), timeout=30.0)


def test_ssl_keynote_permits_with_credential_chain():
    """Fig. 10 end-to-end: POLICY -> admin -> alice, credential in AuthDB."""
    sim, net, ctx, asd, authdb, echo = build_secure_ace(SecurityMode.SSL_KEYNOTE)
    admin = KeyPair.generate(ctx.rng.py("admin"))
    ctx.security.register_principal(admin.principal(), admin.public)
    ctx.security.policies.append(
        Assertion("POLICY", f'"{admin.principal()}"', 'app_domain == "ace"')
    )
    alice = make_user(ctx, "alice", authdb, admin_kp=admin, allowed_command="echo")

    def scenario():
        client = ServiceClient(
            ctx, net.host("infra"), principal=alice.principal(), keypair=alice
        )
        conn = yield from client.connect(echo.address)
        reply = yield from conn.call(ACECmdLine("echo", text="authorized"))
        # Granted only "echo": other commands are denied.
        with pytest.raises(CallError, match="permission denied"):
            yield from conn.call(ACECmdLine("slowEcho", text="x", delay=0.1))
        conn.close()
        return reply

    reply = sim.run_process(scenario(), timeout=30.0)
    assert reply["text"] == "authorized"


def test_attach_without_signature_rejected_in_keynote_mode():
    sim, net, ctx, asd, authdb, echo = build_secure_ace(SecurityMode.SSL_KEYNOTE)
    alice = make_user(ctx, "alice", authdb)

    def scenario():
        # No keypair given: client cannot sign its attach.
        client = ServiceClient(ctx, net.host("infra"), principal=alice.principal())
        with pytest.raises(CallError, match="signature"):
            yield from client.connect(echo.address)

    sim.run_process(scenario(), timeout=30.0)


def test_attach_with_forged_signature_rejected():
    sim, net, ctx, asd, authdb, echo = build_secure_ace(SecurityMode.SSL_KEYNOTE)
    alice = make_user(ctx, "alice", authdb)
    mallory = KeyPair.generate(random.Random(666))  # not alice's key

    def scenario():
        client = ServiceClient(
            ctx, net.host("infra"), principal=alice.principal(), keypair=mallory
        )
        with pytest.raises(CallError, match="invalid"):
            yield from client.connect(echo.address)

    sim.run_process(scenario(), timeout=30.0)


def test_unknown_principal_rejected():
    sim, net, ctx, asd, authdb, echo = build_secure_ace(SecurityMode.SSL_KEYNOTE)
    ghost = KeyPair.generate(random.Random(1))  # never registered

    def scenario():
        client = ServiceClient(
            ctx, net.host("infra"), principal="user:ghost", keypair=ghost
        )
        with pytest.raises(CallError, match="unknown principal"):
            yield from client.connect(echo.address)

    sim.run_process(scenario(), timeout=30.0)


def test_credentials_via_wire_storeCredential():
    """Credentials stored over the wire (not just in-process) authorize."""
    sim, net, ctx, asd, authdb, echo = build_secure_ace(SecurityMode.SSL_KEYNOTE)
    admin = KeyPair.generate(ctx.rng.py("admin"))
    ctx.security.register_principal(admin.principal(), admin.public)
    ctx.security.policies.append(
        Assertion("POLICY", f'"{admin.principal()}"', 'app_domain == "ace"')
    )
    alice = make_user(ctx, "alice", authdb)
    cred = Assertion(
        admin.principal(), f'"{alice.principal()}"', 'command == "echo" -> "permit";'
    ).sign(admin)

    def scenario():
        svc_client = ServiceClient(ctx, net.host("infra"), principal="admin-tool")
        yield from svc_client.call(
            authdb.address,
            ACECmdLine(
                "storeCredential",
                principal=alice.principal(),
                credential=encode_credential(cred.to_text()),
            ),
        )
        client = ServiceClient(
            ctx, net.host("infra"), principal=alice.principal(), keypair=alice
        )
        reply = yield from client.call(echo.address, ACECmdLine("echo", text="ok"))
        return reply

    reply = sim.run_process(scenario(), timeout=30.0)
    assert reply["text"] == "ok"


def test_ping_always_allowed():
    sim, net, ctx, asd, authdb, echo = build_secure_ace(SecurityMode.SSL_KEYNOTE)
    alice = make_user(ctx, "alice", authdb)

    def scenario():
        client = ServiceClient(
            ctx, net.host("infra"), principal=alice.principal(), keypair=alice
        )
        reply = yield from client.call(echo.address, ACECmdLine("ping"))
        return reply

    assert sim.run_process(scenario(), timeout=30.0).name == "cmdOk"


# -- a failed handshake or record check is a call failure, not a crash --------

def _rogue(daemon):
    """Swap the daemon's certificate for one issued by a CA nobody trusts
    (same CA name, different key)."""
    rogue = CertificateAuthority(random.Random(99))
    daemon.keypair, daemon.certificate = rogue.issue_keypair(daemon.name)


def _rpc_delta(ctx, before):
    after = ctx.resilience.stats.snapshot()
    return {k: after[k] - before[k] for k in after if after[k] != before[k]}


@pytest.mark.parametrize("bad", ["wrong-subject", "rogue-ca"])
@pytest.mark.parametrize("how", ["plain", "policy", "replicas"])
def test_failed_handshake_is_a_transport_error(how, bad):
    sim, net, ctx, asd, authdb, echo = build_secure_ace(SecurityMode.SSL)
    if bad == "rogue-ca":
        _rogue(echo)
        connect_kw, text = {}, "untrusted certificate for 'echo1'"
    else:
        connect_kw = {"expected_subject": "someone.else"}
        text = "certificate subject 'echo1' != expected 'someone.else'"
    policy = None if how == "plain" else CallPolicy(
        deadline=2.0, attempt_timeout=1.0, max_attempts=1, breaker_threshold=5)
    target = [echo.address, echo.address] if how == "replicas" else echo.address
    client = ServiceClient(ctx, net.host("infra"), principal="user:alice")
    before = ctx.resilience.stats.snapshot()

    def scenario():
        with pytest.raises(CallError) as info:
            yield from client.call(target, ACECmdLine("echo", text="hi"), policy, **connect_kw)
        return info.value

    exc = sim.run_process(scenario(), timeout=30.0)
    assert type(exc) is TransportError
    assert isinstance(exc.__cause__, HandshakeError)
    assert str(exc) == str(exc.__cause__) == text
    attempts = {"plain": 1, "policy": 1, "replicas": 2}[how]
    # Booked as a failure each time — not a call with nothing beside it.
    assert _rpc_delta(ctx, before) == {"calls": attempts, "failures": attempts}
    if policy is not None:
        assert ctx.resilience.breaker(echo.address, policy).failures == attempts
    assert ctx.obs.metrics.counter("rpc.failover").value == (how == "replicas")


def test_replica_call_routes_around_a_bad_certificate():
    sim, net, ctx, asd, authdb, bad = build_secure_ace(SecurityMode.SSL)
    good = EchoDaemon(ctx, "echo2", net.make_host("baz", room="hawk"), room="hawk")
    good.start()
    sim.run(until=sim.now + 1.0)
    _rogue(bad)
    client = ServiceClient(ctx, net.host("infra"), principal="user:alice")
    before = ctx.resilience.stats.snapshot()
    reply = sim.run_process(client.call(
        [bad.address, good.address], ACECmdLine("echo", text="hi"), policy=FAILOVER_POLICY,
    ), timeout=30.0)
    assert reply["by"] == "echo2"
    assert ctx.obs.metrics.counter("rpc.failover").value == 1
    assert _rpc_delta(ctx, before) == {"calls": 2, "failures": 1, "successes": 1}
    assert ctx.resilience.breaker(bad.address, FAILOVER_POLICY).failures == 1
    assert ctx.resilience.breaker(good.address, FAILOVER_POLICY).failures == 0


def test_service_takes_its_fallback_when_its_callee_presents_a_bad_certificate():
    """The handler's ``except CallError`` covers the handshake: the caller
    gets the service's ``cmdFailed`` and the handler thread keeps serving."""
    sim, net, ctx, asd, authdb, echo = build_secure_ace(SecurityMode.SSL)
    printer = PrinterDaemon(ctx, "printer1", net.make_host("lab", room="hawk"), room="hawk")
    tasks = TaskAutomationDaemon(ctx, "tasks", net.host("infra"))
    printer.start()
    tasks.start()
    sim.run(until=sim.now + 2.0)
    _rogue(printer)
    client = ServiceClient(ctx, net.host("infra"), principal="user:alice")

    def scenario():
        with pytest.raises(CallError, match="'printer1' unreachable: untrusted certificate") as info:
            yield from client.call(
                tasks.address, ACECmdLine("printNearest", user="alice", doc="thesis.ps"))
        assert type(info.value) is CallError   # the service answered
        reply = yield from client.call(tasks.address, ACECmdLine("ping"))
        return reply

    assert sim.run_process(scenario(), timeout=30.0).name == "cmdOk"
    assert tasks.commands_served == 2


def test_replayed_record_mid_call_is_a_transport_error():
    """A record check that fails on a held channel surfaces from
    ``conn.call`` like any lost channel, and ``pool.call`` drops the channel."""
    sim, net, ctx, asd, authdb, echo = build_secure_ace(SecurityMode.SSL)
    client = ServiceClient(ctx, net.host("infra"), principal="user:alice")
    slow = ACECmdLine("slowEcho", text="x", delay=0.5)

    def replay(conn):
        # On-path attacker: re-send the daemon's record 0 (the attach reply
        # used that nonce) while the client waits for the real reply.
        yield sim.timeout(0.1)
        yield from conn.channel.conn.peer.send(_Record((0).to_bytes(8, "big"), b"x", b"y" * 16))

    def scenario():
        held = yield from client.connect(echo.address)
        sim.process(replay(held))
        with pytest.raises(TransportError, match="replay or reorder") as info:
            yield from held.call(slow)
        assert isinstance(info.value.__cause__, HandshakeError)

        pool = client.pool
        pooled = yield from pool.acquire(echo.address)
        pool.release(echo.address, pooled)
        sim.process(replay(pooled))
        with pytest.raises(TransportError, match="replay or reorder"):
            yield from pool.call(echo.address, slow)
        assert pooled.closed and pool._idle[echo.address] == []

    sim.run_process(scenario(), timeout=30.0)
