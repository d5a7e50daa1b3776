"""Remaining unit coverage: AUD details, SRM scoring, secure replay,
FIU matcher edges."""

import numpy as np
import pytest

from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.services.aud import UserDatabaseDaemon
from repro.services.fiu import FingerprintUnitDaemon, make_template, noisy_sample
from repro.services.srm import SystemResourceMonitorDaemon


# -- AUD -----------------------------------------------------------------------

@pytest.fixture
def aud_env():
    env = ACEEnvironment(seed=200)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    env.boot()
    return env


def call(env, name, command, **kw):
    def go():
        client = env.client(env.net.host("infra"), principal="admin")
        return (yield from client.call(env.daemon(name).address, command, **kw))

    return env.run(go())


def test_aud_check_password(aud_env):
    env = aud_env
    call(env, "aud", ACECmdLine("addUser", username="john", password="hunter2"))
    good = call(env, "aud", ACECmdLine("checkPassword", username="john",
                                       password="hunter2"))
    bad = call(env, "aud", ACECmdLine("checkPassword", username="john",
                                      password="wrong"))
    assert good["valid"] == 1 and bad["valid"] == 0
    # Passwords are stored hashed, never in the clear.
    assert env.daemon("aud").users["john"].password_hash != "hunter2"


def test_aud_get_remove_list(aud_env):
    env = aud_env
    call(env, "aud", ACECmdLine("addUser", username="a", fullname="Ann A"))
    call(env, "aud", ACECmdLine("addUser", username="b"))
    info = call(env, "aud", ACECmdLine("getUser", username="a"))
    assert info["fullname"] == "Ann A"
    assert info["has_fingerprint"] == 0
    listing = call(env, "aud", ACECmdLine("listUsers"))
    assert listing["users"] == ("a", "b")
    call(env, "aud", ACECmdLine("removeUser", username="a"))
    assert call(env, "aud", ACECmdLine("listUsers"))["count"] == 1


def test_aud_ibutton_lookup(aud_env):
    env = aud_env
    call(env, "aud", ACECmdLine("addUser", username="j", ibutton="ib-00ff"))
    found = call(env, "aud", ACECmdLine("findByIButton", serial="ib-00ff"))
    assert found["username"] == "j"
    from repro.core import CallError

    def go():
        client = env.client(env.net.host("infra"), principal="admin")
        with pytest.raises(CallError, match="no user with iButton"):
            yield from client.call(
                env.daemon("aud").address, ACECmdLine("findByIButton", serial="nope"))

    env.run(go())


def test_aud_fingerprint_listing(aud_env):
    env = aud_env
    template = make_template(np.random.default_rng(1))
    call(env, "aud", ACECmdLine("addUser", username="j", fingerprint=template))
    call(env, "aud", ACECmdLine("addUser", username="noprint"))
    listing = call(env, "aud", ACECmdLine("listFingerprints"))
    assert listing["users"] == ("j",)
    assert listing["templates"][0] == template


# -- SRM scoring ----------------------------------------------------------------

def test_srm_score_ordering():
    idle_fast = {"run_queue": 0, "cpu_load": 0.1, "bogomips": 1600.0}
    idle_slow = {"run_queue": 0, "cpu_load": 0.1, "bogomips": 400.0}
    busy_fast = {"run_queue": 3, "cpu_load": 0.9, "bogomips": 1600.0}
    score = SystemResourceMonitorDaemon.score
    assert score(idle_fast) < score(idle_slow) < score(busy_fast)


# -- secure channel replay protection ----------------------------------------------

def test_secure_channel_rejects_replayed_record():
    import random

    from repro.net import Address, HandshakeError, Network
    from repro.net.secure import handshake_client, handshake_server
    from repro.security.crypto import CertificateAuthority
    from repro.sim import RngRegistry, Simulator

    sim = Simulator()
    net = Network(sim, RngRegistry(0))
    net.make_host("a")
    net.make_host("b")
    ca = CertificateAuthority(random.Random(1))
    kp, cert = ca.issue_keypair("server.b")
    listener = net.listen(net.host("b"), 5000)
    outcome = []

    def server():
        conn = yield from listener.accept()
        chan = yield from handshake_server(conn, random.Random(2), kp, cert)
        yield from chan.recv()  # the legitimate record
        try:
            yield from chan.recv()  # the replay
        except HandshakeError as exc:
            outcome.append("replay" in str(exc) or "reorder" in str(exc))

    def client():
        conn = yield from net.connect(net.host("a"), Address("b", 5000))
        chan = yield from handshake_client(conn, random.Random(3), ca.public_key, ca.name)
        yield from chan.send("hello")
        # Capture the raw record and resend the exact same bytes.
        from repro.net.secure import _Record

        seq0 = (0).to_bytes(8, "big")
        cipher = chan._cipher.encrypt(seq0, b"shello")
        from repro.security.crypto import hmac_sha256

        mac = hmac_sha256(chan._mac_key, seq0 + cipher)[:16]
        yield from conn.send(_Record(seq0, cipher, mac))

    sim.process(server())
    sim.process(client())
    sim.run()
    assert outcome == [True]


# -- FIU matcher edges ------------------------------------------------------------

def test_fiu_match_with_no_templates():
    env = ACEEnvironment(seed=201)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    host = env.add_workstation("door", room="hawk", monitors=False)
    fiu = FingerprintUnitDaemon(env.ctx, "fiu", host, room="hawk")
    env.add_daemon(fiu)
    env.boot()
    user, distance = fiu.match(tuple(0.0 for _ in range(16)))
    assert user is None and distance == float("inf")


def test_fiu_match_dimension_mismatch():
    env = ACEEnvironment(seed=202)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    host = env.add_workstation("door", room="hawk", monitors=False)
    fiu = FingerprintUnitDaemon(env.ctx, "fiu", host, room="hawk")
    fiu._usernames = ["j"]
    fiu._templates = np.zeros((1, 16))
    user, _ = fiu.match((0.0, 1.0))  # wrong dimension
    assert user is None


def test_fiu_identifies_with_the_first_of_two_user_databases_dead():
    """"Find the user database" names the class, so a dead first-listed
    instance (still holding its lease) costs nothing but the fail-over."""
    env = ACEEnvironment(seed=203)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    door = env.add_workstation("door", room="hawk", monitors=False)
    env.add_daemon(FingerprintUnitDaemon(env.ctx, "fiu", door, room="hawk"))
    second = env.add_daemon(UserDatabaseDaemon(
        env.ctx, "aud.second", env.add_host("aux", room="machineroom"), room="machineroom"))
    env.boot()
    john = env.create_identity("john")
    env.register_user_direct(john)
    second.users.update(env.daemon("aud").users)
    env.daemon("aud").kill()
    assert call(env, "fiu", ACECmdLine("loadTemplates"))["count"] == 1
    sample = noisy_sample(john.fingerprint_template, env.rng.np("press"))
    reply = call(env, "fiu", ACECmdLine("scan", sample=sample))
    assert (reply["matched"], reply["username"]) == (1, "john")
    assert env.ctx.obs.metrics.counter("rpc.failover").value == 1
