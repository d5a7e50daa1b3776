"""NetLogger wire-escaping regression + sublinear query indexes.

Two PR-2 fixes under test:

* ``queryLog`` rows are ``|``-escaped with ``repro.lang.wire`` so a
  ``source``/``detail`` containing ``|`` survives the round trip
  (previously the row simply grew extra columns);
* ``_matching``/``countEvents`` use per-(source,event) sequence indexes
  plus a bisect on the monotonic time array instead of a full-log scan,
  and the indexes stay correct across the oldest-decile trim.
"""

import pytest

from repro.lang.wire import split_wire
from repro.services.netlogger import LogEntry, NetworkLoggerDaemon
from tests.core.conftest import AceFixture


@pytest.fixture
def ace():
    return AceFixture().boot()


def log(daemon, source, event, detail="", time=None):
    daemon._append(LogEntry(
        time=daemon.ctx.sim.now if time is None else time,
        source=source, event=event, detail=detail,
    ))


def reset(daemon):
    """Clear the boot-time rows so tests control the exact log contents."""
    daemon.entries.clear()
    daemon._times.clear()
    daemon._by_source.clear()
    daemon._by_event.clear()
    daemon._by_pair.clear()
    daemon._base = 0


def test_query_rows_escape_pipes(ace):
    nl = ace.netlogger
    log(nl, "svc|with|pipes", "ev", "detail|with\\escapes")
    entry = nl.entries[-1]
    fields = split_wire(entry.to_wire())
    assert fields[1] == "svc|with|pipes"
    assert fields[3] == "detail|with\\escapes"
    assert len(fields) == 4  # embedded pipes did not add columns


def test_query_rows_escape_pipes_over_the_wire(ace):
    from repro.lang import ACECmdLine

    def scenario():
        client = ace.client()
        yield from client.call(
            ace.ctx.netlogger_address,
            ACECmdLine("logEvent", source="a|b", event="e", detail="x|y|z"),
        )
        reply = yield from client.call(
            ace.ctx.netlogger_address, ACECmdLine("queryLog", source="a|b")
        )
        return reply

    reply = ace.run(scenario())
    assert reply["count"] == 1
    (row,) = reply["events"]
    _, source, event, detail = split_wire(row)
    assert (source, event, detail) == ("a|b", "e", "x|y|z")


def test_indexes_agree_with_linear_scan(ace):
    nl = ace.netlogger
    reset(nl)
    for i in range(40):
        log(nl, f"s{i % 3}", f"e{i % 4}", time=float(i))

    def brute(source, event, since=0.0):
        return [
            e for e in nl.entries
            if (source is None or e.source == source)
            and (event is None or e.event == event)
            and e.time >= since
        ]

    for source in (None, "s0", "s2", "missing"):
        for event in (None, "e1", "missing"):
            for since in (0.0, 10.0, 39.0, 100.0):
                expect = brute(source, event, since)
                assert nl._matching(source, event, since) == expect, (source, event, since)
                assert nl._count_matching(source, event, since) == len(expect)


def test_trim_keeps_indexes_consistent(ace):
    nl = ace.netlogger
    reset(nl)
    nl.max_entries = 100
    for i in range(250):
        log(nl, f"s{i % 5}", "e", time=float(i))
    # Trims fired: the log holds the newest entries only.
    assert len(nl.entries) <= 100
    oldest = nl.entries[0].time
    # Every index entry must still resolve, and counts must match reality.
    for source in (None, "s0", "s3"):
        got = nl._matching(source, None)
        expect = [e for e in nl.entries if source is None or e.source == source]
        assert got == expect
        assert nl._count_matching(source, None) == len(expect)
    # A since-query straddling the trim boundary is clamped to what's kept.
    assert nl._count_matching(None, None, since=oldest) == len(nl.entries)
    assert nl._count_matching(None, None, since=0.0) == len(nl.entries)


def test_count_events_is_sublinear(ace):
    """The intrusion-detection count must not scan the whole log: filling
    the log 16x deeper must not make the query 16x slower."""
    import timeit

    nl = ace.netlogger
    reset(nl)
    nl.max_entries = 10 ** 9  # no trim; we want pure query scaling

    def fill(n, offset):
        for i in range(n):
            log(nl, f"src{i % 50}", "login_failed", time=float(offset + i))

    def query():
        return nl._count_matching("src7", "login_failed", since=float(len(nl.entries) // 2))

    fill(5_000, 0)
    small = min(timeit.repeat(query, number=200, repeat=3))
    fill(75_000, 5_000)
    large = min(timeit.repeat(query, number=200, repeat=3))
    assert query() > 0
    # Allow generous noise: a linear scan would be ~16x; indexes stay flat.
    assert large < small * 6, (small, large)
