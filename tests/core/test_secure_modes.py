"""End-to-end security integration (Chapter 3, Fig. 10).

Builds an ACE in each security mode and verifies: encrypted channels,
attach signature checking, KeyNote authorization with AuthDB-stored
credentials, and denial paths.
"""

import random

import pytest

from repro.core import CallError, DaemonContext, ServiceClient
from repro.core.context import SecurityMode
from repro.lang import ACECmdLine
from repro.net import Network
from repro.net.address import WellKnownPorts
from repro.security.crypto import CertificateAuthority, KeyPair
from repro.security.keynote import Assertion
from repro.services.asd import ServiceDirectoryDaemon
from repro.services.authdb import AuthorizationDatabaseDaemon, encode_credential
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
