"""What one round trip costs, pinned as exact counts (ROADMAP item 1).

Counts are noise-free where host times are not: the kernel's
``events_scheduled`` is exact per seed, and so is how often a command is
parsed.  Two budgets:

* one command over a held connection to an idle daemon schedules **7**
  kernel events (11 before the hand-offs became single resumes) at an
  unchanged simulated latency;
* a pooled policy call adds one: its budget timer (**8**; 11 while the
  attempt was a process raced against the timer by an ``AnyOf``);
* a store's replication flush to an idle peer is that pooled policy call
  (**8**; 12 while it rode a tagged pipeline with its own reader process,
  reply timer and a responder spawned on the peer);
* the commands the ledger workloads send by the thousand — class-lookup
  replies, replication batches, anti-entropy digests and fetches,
  telemetry pushes — are never parsed over a plain link; under SSL every
  hop is parsed;
* a ``ping`` round trip runs at most 70 % of the repro calls it ran
  before the fabric's and the daemon's helper hops were folded into the
  bodies that do the work: held **≤ 124.8** (178.3 before, 121.3 now),
  pooled **≤ 134.4** (192.0 before, 133.0 now).  Python 3.10, 3.11 and
  3.12 read the same counts, so the margin of 3.5 and 1.4 calls is what a
  new hop on the round trip may spend, not interpreter slack.
"""

import os
import sys
from collections import Counter

import pytest

import repro
import repro.core.client as client_module
import repro.core.daemon as daemon_module
import repro.lang.parser as parser
from repro.core.context import SecurityMode
from repro.env import ACEEnvironment
from repro.env.scenarios import standard_environment
from repro.lang import ACECmdLine
from tests.call_counts import calls_per_unit, profiled_calls

#: request: transmit-delay timeout + delivery timeout, the reader resumed
#: inside the delivery (2); command thread -> control thread: the queue
#: getter's wake (1); ``Host.execute``: the work timeout, a free core costs
#: no grant event (1); ``reply_slot`` (1); reply: two timeouts again (2).
ROUND_TRIP_EVENTS = 7


def _ping_and_lookup(open_channel):
    """Kernel events and simulated ms of a ``ping`` and a class ``lookup``
    to an idle ASD, each sent through the ``call`` that ``open_channel(
    client, address)`` returns once its dial has drained."""
    env = standard_environment(seed=29).boot()
    client = env.client(env.net.host("podium"), principal="probe")
    seen = []

    def drive():
        call = yield from open_channel(client, env.daemon("asd").address)
        yield env.sim.timeout(0.01)  # the dial's own wake-ups have drained
        for command in (ACECmdLine("ping"), ACECmdLine("lookup", cls="PTZCamera")):
            before, t0 = env.sim.counters()["events_scheduled"], env.sim.now
            reply = yield from call(command)
            seen.append((
                env.sim.counters()["events_scheduled"] - before,
                round((env.sim.now - t0) * 1e3, 4),
            ))
            assert reply.name == "cmdOk"

    env.run(drive())
    return seen


def test_held_connection_round_trip_schedules_seven_events():
    def held(client, address):
        conn = yield from client.connect(address)
        return conn.call

    (ping_events, ping_ms), (lookup_events, _) = _ping_and_lookup(held)
    assert (ping_events, lookup_events) == (ROUND_TRIP_EVENTS, ROUND_TRIP_EVENTS)
    # The simulated latency it had with eleven events: the four that went
    # were zero-delay hand-offs.
    assert ping_ms == 1.7534


def test_pooled_policy_call_schedules_the_round_trip_and_its_budget_timer():
    def pooled(client, address):
        yield from client.call(address, ACECmdLine("ping"))   # dials the pool
        return lambda command: client.call(address, command)

    (ping_events, ping_ms), (lookup_events, _) = _ping_and_lookup(pooled)
    assert (ping_events, lookup_events) == (ROUND_TRIP_EVENTS + 1,) * 2
    assert ping_ms == 1.7534


def test_replication_flush_to_an_idle_peer_is_one_pooled_policy_call():
    """One ``psReplicateBatch`` flush, its channel already pooled by the
    first flush, costs exactly what a pooled policy call does."""
    env = ACEEnvironment(seed=29, lease_duration=30.0)
    env.add_infrastructure()
    # no age flush and no anti-entropy round inside the probe
    env.add_persistent_store(replicas=2, groups=1, sync_interval=600.0,
                             repl_flush_age=600.0)
    env.boot(settle=2.0)
    ps1, ps2 = env.daemon("ps1"), env.daemon("ps2")
    seen = []

    def drive():
        for i in range(3):   # the first flush dials the pool
            ps1._enqueue_replication(ps1.namespace.put(f"/probe/o{i}", {"v": str(i)}))
            before, t0 = env.sim.counters()["events_scheduled"], env.sim.now
            yield from ps1._flush_peer(ps2.address)
            seen.append((
                env.sim.counters()["events_scheduled"] - before,
                round((env.sim.now - t0) * 1e3, 4),
            ))
            yield env.sim.timeout(0.01)

    env.run(drive())
    assert seen[1:] == [(ROUND_TRIP_EVENTS + 1, 2.1743)] * 2
    assert [ps2.namespace.get(f"/probe/o{i}").attrs for i in range(3)] == [
        {"v": str(i)} for i in range(3)
    ]


# ---------------------------------------------------------------------------
# Call budget
# ---------------------------------------------------------------------------

#: repro calls per ``ping`` round trip (this file's driver loop included)
#: before the helper hops went, measured by ``_calls_per_ping`` itself
#: (the same on Python 3.10, 3.11 and 3.12)
CALLS_BEFORE = {"held": 178.28, "pooled": 192.035}
CALL_BUDGET_SHARE = 0.70

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def _counted(filename):
    return filename.startswith(_REPRO_DIR) or filename == __file__


def _held(client, address):
    conn = yield from client.connect(address)
    return conn.call


def _pooled(client, address):
    yield from client.pool.call(address, ACECmdLine("ping"))   # dials the pool
    return lambda command: client.pool.call(address, command)


def _calls_per_ping(open_call, n=200):
    """Repro calls per ``ping`` to an idle ASD, through the ``call`` that
    ``open_call(client, address)`` returns: the difference of a ``2n``-
    and an ``n``-ping loop, each profiled on a fresh environment after
    the channel's dial has drained, over ``n``."""
    def profiled(pings):
        env = standard_environment(seed=29).boot()
        client = env.client(env.net.host("podium"), principal="probe")

        def ready():
            call = yield from open_call(client, env.daemon("asd").address)
            yield env.sim.timeout(0.01)
            return call

        call = env.run(ready())

        def loop():
            for _ in range(pings):
                reply = yield from call(ACECmdLine("ping"))
                assert reply.name == "cmdOk"

        _, calls = profiled_calls(lambda: env.run(loop()), _counted)
        return calls

    profiled(n // 4)   # warm-up: module-level caches fill here
    return calls_per_unit(profiled(n), profiled(2 * n), n)


@pytest.mark.parametrize("channel, open_call", [("held", _held), ("pooled", _pooled)])
def test_a_ping_round_trip_pays_only_for_its_work(channel, open_call):
    per_ping, per_function = _calls_per_ping(open_call)
    assert per_ping <= CALL_BUDGET_SHARE * CALLS_BEFORE[channel], per_function


# ---------------------------------------------------------------------------
# Parse budget
# ---------------------------------------------------------------------------

def _key(command):
    if command.name in ("cmdOk", "cmdFailed"):
        return f"{command.name}:{command.get('cmd')}"
    return command.name


@pytest.fixture
def parses(monkeypatch):
    """Count by command name (a reply is keyed ``cmdOk:<cmd>``): what a
    channel delivered to a client or daemon (``received``), which of those
    arrived as text and were parsed (``hop``), and every ``parse_command``
    anywhere (``total``: the hops plus text nested inside a command)."""
    received, hop, total = Counter(), Counter(), Counter()

    def counting(counter, function):
        def wrapper(payload):
            command = function(payload)
            counter[_key(command)] += 1
            return command
        return wrapper

    receive = counting(received, client_module.received_command)
    monkeypatch.setattr(client_module, "received_command", receive)
    monkeypatch.setattr(daemon_module, "received_command", receive)
    # parse_command is imported by name all over repro: wrap every binding
    original = parser.parse_command
    parse = counting(total, original)
    for module in list(sys.modules.values()):
        if vars(module).get("parse_command") is original:
            monkeypatch.setattr(module, "parse_command", parse)
    monkeypatch.setattr(client_module, "parse_command", counting(hop, parse))
    return received, hop, total


def _ledger_miniature(security):
    """A miniature of each ledger workload's traffic: ``room_planes``'
    traced class lookup over a held connection and a telemetry push,
    ``store_mix``'s put / get with a replication flush and an anti-entropy
    round that has something to fetch."""
    env = ACEEnvironment(seed=29, lease_duration=4.0, security=security)
    env.add_infrastructure()
    env.add_persistent_store(replicas=2, groups=1, sync_interval=1.0)
    lab = env.add_workstation("lab1", room="lab", monitors=False)
    env.boot(settle=2.0)
    env.enable_telemetry(interval=0.5)
    client = env.client(lab, principal="probe")
    store = env.store_client(lab, principal="probe")

    def drive():
        conn = yield from client.connect(env.asd_address)
        root = client.begin_trace("probe")
        reply = yield from conn.call(ACECmdLine("lookup", cls="HRM"))
        client.end_trace(root)
        conn.close()
        assert reply["count"] >= 1
        yield from store.put("/probe/a", {"v": "1"})
        yield env.sim.timeout(0.5)   # the replication flush has gone out
        # A write only one replica holds (as after a lost batch): the
        # other's next anti-entropy round digests the bucket and fetches it.
        env.daemon("ps1").namespace.put("/probe/b", {"v": "2"})
        yield env.sim.timeout(3.0)
        return env.daemon("ps2").namespace.get("/probe/b").attrs

    assert env.run(drive()) == {"v": "2"}


LEDGER_SHAPES = ("cmdOk:lookup", "psReplicateBatch", "obsPush", "psDigestBuckets",
                 "cmdOk:psDigestBuckets", "psDigest", "cmdOk:psDigest", "psFetch",
                 "cmdOk:psFetch")


def test_ledger_traffic_is_never_parsed(parses):
    """Over plain links a command arrives as the object that was sent: no
    hop parses, and the only text parsed is the command each directory
    notification carries in its arguments."""
    received, hop, total = parses
    _ledger_miniature(SecurityMode.NONE)
    for shape in LEDGER_SHAPES:
        assert received[shape] >= 1, f"{shape} never seen: the miniature is stale"
    assert hop == Counter()
    assert received["onServiceRegistered"] >= 1
    assert total == Counter({"register": received["onServiceRegistered"]})


def test_ssl_hops_still_parse(parses):
    """Under SSL every hop is an encrypted record of the command's text, so
    every command a channel delivers is parsed on arrival."""
    received, hop, total = parses
    _ledger_miniature(SecurityMode.SSL)
    for shape in LEDGER_SHAPES:
        assert received[shape] >= 1, f"{shape} never seen: the miniature is stale"
    assert hop == received
    assert total == hop + Counter({"register": received["onServiceRegistered"]})
