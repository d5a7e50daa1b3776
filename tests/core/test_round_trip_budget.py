"""What one round trip costs, pinned as exact counts (ROADMAP item 1).

Counts are noise-free where host times are not: the kernel's
``events_scheduled`` is exact per seed, and whether a wire line took the
codec's fast lane is a property of its text.  Two budgets:

* one command over a held connection to an idle daemon schedules **7**
  kernel events (11 before the hand-offs became single resumes) at an
  unchanged simulated latency;
* the lines the ledger workloads send by the thousand — class-lookup
  replies, replication batches, anti-entropy digests and fetches,
  telemetry pushes — never reach the tokenizer.
"""

from collections import Counter

import pytest

import repro.lang.parser as parser
from repro.env import ACEEnvironment
from repro.env.scenarios import standard_environment
from repro.lang import ACECmdLine

#: request: transmit-delay timeout + delivery timeout, the reader resumed
#: inside the delivery (2); command thread -> control thread: the queue
#: getter's wake (1); ``Host.execute``: the work timeout, a free core costs
#: no grant event (1); ``reply_slot`` (1); reply: two timeouts again (2).
ROUND_TRIP_EVENTS = 7


def test_held_connection_round_trip_schedules_seven_events():
    env = standard_environment(seed=29).boot()
    client = env.client(env.net.host("podium"), principal="probe")
    seen = []

    def drive():
        conn = yield from client.connect(env.daemon("asd").address)
        yield env.sim.timeout(0.01)  # the dial's own wake-ups have drained
        for command in (ACECmdLine("ping"), ACECmdLine("lookup", cls="PTZCamera")):
            before, t0 = env.sim.counters()["events_scheduled"], env.sim.now
            reply = yield from conn.call(command)
            seen.append((
                env.sim.counters()["events_scheduled"] - before,
                round((env.sim.now - t0) * 1e3, 4),
            ))
            assert reply.name == "cmdOk"
        conn.close()

    env.run(drive())
    (ping_events, ping_ms), (lookup_events, _) = seen
    assert (ping_events, lookup_events) == (ROUND_TRIP_EVENTS, ROUND_TRIP_EVENTS)
    # The simulated latency it had with eleven events: the four that went
    # were zero-delay hand-offs.
    assert ping_ms == 1.7534


# ---------------------------------------------------------------------------
# Slow-lane budget
# ---------------------------------------------------------------------------

def _may_take_the_slow_lane(text: str) -> bool:
    """What may still reach the tokenizer, by what makes it ineligible: a
    backslash (escaped strings: notification payloads carrying a quoted
    command line, checkpoint and store entries with escaped ``|``) or an
    array ``{{...}}``.  Nothing in the miniature below has either."""
    return "\\" in text or "{{" in text


@pytest.fixture
def lanes(monkeypatch):
    """Count parses by lane: ``fast`` and ``slow`` map a command name (a
    reply is keyed ``cmdOk:<cmd>``) to how often it was parsed there."""
    fast, slow, slow_texts = Counter(), Counter(), []

    def key(command):
        if command.name in ("cmdOk", "cmdFailed"):
            return f"{command.name}:{command.get('cmd')}"
        return command.name

    fast_lane, full = parser._parse_fast, parser.parse_command_full

    def counting_fast(text):
        command = fast_lane(text)
        if command is not None:
            fast[key(command)] += 1
        return command

    def counting_full(text):
        command = full(text)
        slow[key(command)] += 1
        slow_texts.append(text)
        return command

    monkeypatch.setattr(parser, "_parse_fast", counting_fast)
    monkeypatch.setattr(parser, "parse_command_full", counting_full)
    return fast, slow, slow_texts


def test_ledger_traffic_stays_on_the_fast_lane(lanes):
    """A miniature of each ledger workload's traffic: ``room_planes``'
    traced class lookup over a held connection and a telemetry push,
    ``store_mix``'s put / get with a replication flush and an anti-entropy
    round that has something to fetch."""
    fast, slow, slow_texts = lanes
    env = ACEEnvironment(seed=29, lease_duration=4.0)
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

    for shape in ("cmdOk:lookup", "psReplicateBatch", "obsPush",
                  "psDigestBuckets", "cmdOk:psDigestBuckets", "psDigest",
                  "cmdOk:psDigest", "psFetch", "cmdOk:psFetch"):
        assert fast[shape] >= 1, f"{shape} never seen: the miniature is stale"
        assert slow[shape] == 0, f"{shape} reached the tokenizer"
    assert [t for t in slow_texts if not _may_take_the_slow_lane(t)] == []
