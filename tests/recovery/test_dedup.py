"""Idempotency-window edges: stamping, dedup cache, bounded eviction."""

import repro.core.daemon as daemon_module
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.lang.command import (
    CLIENT_ID_ARG,
    CLIENT_SEQ_ARG,
    RESERVED_ARGS,
    ok_reply,
)
from repro.services.roomdb import RoomDatabaseDaemon


def make_daemon():
    env = ACEEnvironment(seed=0)
    host = env.add_host("h1")
    return env, RoomDatabaseDaemon(env.ctx, "roomdb", host)


def test_reserved_args_cover_stamps():
    assert CLIENT_ID_ARG in RESERVED_ARGS
    assert CLIENT_SEQ_ARG in RESERVED_ARGS


def test_unstamped_commands_have_no_dedup_key():
    _, daemon = make_daemon()
    assert daemon._dedup_key(ACECmdLine("lookupRoom", room="lab")) is None


def test_stamped_key_and_default_seq():
    _, daemon = make_daemon()
    stamped = ACECmdLine("lookupRoom", room="lab").with_args(
        **{CLIENT_ID_ARG: "c.c0", CLIENT_SEQ_ARG: 4}
    )
    assert daemon._dedup_key(stamped) == ("c.c0", 4)
    # A missing/malformed seq degrades to 0 rather than crashing.
    only_id = ACECmdLine("lookupRoom", room="lab").with_args(
        **{CLIENT_ID_ARG: "c.c0"}
    )
    assert daemon._dedup_key(only_id) == ("c.c0", 0)


def test_window_evicts_oldest_first(monkeypatch):
    monkeypatch.setattr(daemon_module, "DEDUP_WINDOW", 3)
    _, daemon = make_daemon()
    reply = ok_reply(ACECmdLine("x"))
    for seq in range(5):
        daemon._dedup_remember(("c", seq), reply)
    assert len(daemon._dedup_cache) == 3
    assert set(daemon._dedup_cache) == {("c", 2), ("c", 3), ("c", 4)}
    assert daemon._m_dedup_evicted.value == 2


def test_replay_refreshes_lru_position(monkeypatch):
    monkeypatch.setattr(daemon_module, "DEDUP_WINDOW", 2)
    _, daemon = make_daemon()
    reply = ok_reply(ACECmdLine("x"))
    daemon._dedup_remember(("c", 0), reply)
    daemon._dedup_remember(("c", 1), reply)
    # Touch the older entry (a replay hit does move_to_end)...
    daemon._dedup_cache.move_to_end(("c", 0))
    daemon._dedup_remember(("c", 2), reply)
    # ...so ("c", 1), not ("c", 0), was evicted.
    assert set(daemon._dedup_cache) == {("c", 0), ("c", 2)}


def test_export_import_roundtrip_skips_junk():
    _, daemon = make_daemon()
    r1 = ok_reply(ACECmdLine("a"), value="with|pipes\\and=equals")
    r2 = ok_reply(ACECmdLine("b"))
    daemon._dedup_remember(("c1", 1), r1)
    daemon._dedup_remember(("c2", 2), r2)
    lines = daemon.export_dedup()
    assert len(lines) == 2

    _, fresh = make_daemon()
    restored = fresh.import_dedup(lines + ("not-a-wire-line", "a|b"))
    assert restored == 2
    assert fresh._dedup_cache[("c1", 1)].to_string() == r1.to_string()
    assert fresh._dedup_cache[("c2", 2)].to_string() == r2.to_string()


def test_client_stamps_once_and_only_when_enabled():
    env = ACEEnvironment(seed=0)
    host = env.add_host("h1")
    client = env.client(host, principal="probe")
    command = ACECmdLine("lookupRoom", room="lab")

    # Off (the default): byte-identical pass-through.
    assert client._stamp(command) is command

    env.ctx.idempotent_retries = True
    stamped = client._stamp(command)
    assert stamped.get(CLIENT_ID_ARG) == "probe.c0"
    assert stamped.get(CLIENT_SEQ_ARG) == 0
    # Re-stamping an already-stamped command is a no-op (retries and
    # failover keep the original identity).
    assert client._stamp(stamped) is stamped
    # A new command gets the next sequence number, same client id.
    second = client._stamp(command)
    assert second.get(CLIENT_ID_ARG) == "probe.c0"
    assert second.get(CLIENT_SEQ_ARG) == 1


def test_distinct_clients_get_distinct_ids():
    env = ACEEnvironment(seed=0)
    env.ctx.idempotent_retries = True
    host = env.add_host("h1")
    a = env.client(host, principal="alpha")
    b = env.client(host, principal="alpha")
    sa = a._stamp(ACECmdLine("x"))
    sb = b._stamp(ACECmdLine("x"))
    assert sa.get(CLIENT_ID_ARG) != sb.get(CLIENT_ID_ARG)
