"""Unit tests for ASD lookup semantics, RoomDB, NetLogger, AuthDB."""

import pytest

from repro.core import CallError, Service
from repro.lang import ACECmdLine
from repro.services.asd import ServiceRecord, asd_lookup
from repro.services.authdb import decode_credential, encode_credential

from tests.core.conftest import AceFixture, EchoDaemon


# -- ServiceRecord ------------------------------------------------------------

def test_record_wire_roundtrip():
    rec = ServiceRecord("cam1", "bar", 1234, "hawk", "ACEService/Device/PTZCamera/VCC3")
    assert ServiceRecord.from_wire(rec.to_wire()) == rec


def test_record_wire_roundtrip_delimiter_in_fields():
    """Regression: a ``|`` (or ``\\``) in a name or room used to corrupt
    the wire encoding — from_wire would split mid-field."""
    rec = ServiceRecord("cam|left", "bar", 1234, "hawk|annex", "Device/PTZ|odd")
    assert ServiceRecord.from_wire(rec.to_wire()) == rec
    rec = ServiceRecord("back\\slash", "bar", 1, "a|b\\c|", "cls")
    assert ServiceRecord.from_wire(rec.to_wire()) == rec
    # Plain records keep the plain encoding (wire compatibility).
    plain = ServiceRecord("cam1", "bar", 7, "hawk", "Device")
    assert plain.to_wire() == "cam1|bar|7|hawk|Device"


def test_record_class_matching():
    rec = ServiceRecord("cam1", "bar", 1, "hawk", "ACEService/Device/PTZCamera/VCC3")
    assert rec.matches_class("PTZCamera")
    assert rec.matches_class("Device/PTZCamera")
    assert rec.matches_class("VCC3")
    assert rec.matches_class("ACEService/Device/PTZCamera/VCC3")
    assert not rec.matches_class("VCC4")
    assert not rec.matches_class("PTZCamera/VCC4")
    assert not rec.matches_class("Camera")  # no partial-segment matches


def test_class_matching_is_memoised_on_the_two_strings():
    """A directory scan asks the same (class path, query) pairs over and
    over; records that share a class share the answer, and the memo is
    bounded."""
    from repro.services.asd import _class_matches

    a = ServiceRecord("hrm.a", "a", 1, "lab", "ACEService/Memo/HRM")
    b = ServiceRecord("hrm.b", "b", 2, "den", "ACEService/Memo/HRM")
    assert a.matches_class("Memo/HRM")
    hits = _class_matches.cache_info().hits
    assert b.matches_class("Memo/HRM") and not b.matches_class("Memo/SRM")
    assert _class_matches.cache_info().hits == hits + 1
    assert _class_matches.cache_info().maxsize is not None


# -- ASD lookups over the wire ---------------------------------------------------

@pytest.fixture
def ace_two_echoes():
    ace = AceFixture().boot()
    for i, room in [(1, "hawk"), (2, "jay")]:
        host = ace.net.make_host(f"host{i}", room=room)
        daemon = EchoDaemon(ace.ctx, f"echo{i}", host, room=room)
        ace.add_daemon(daemon)
        daemon.start()
    ace.sim.run(until=ace.sim.now + 1.0)
    return ace


def test_lookup_by_class(ace_two_echoes):
    ace = ace_two_echoes

    def scenario():
        records = yield from asd_lookup(ace.client(), ace.ctx.asd_address, cls="Echo")
        return records

    records = ace.run(scenario())
    assert sorted(r.name for r in records) == ["echo1", "echo2"]


def test_lookup_by_room(ace_two_echoes):
    ace = ace_two_echoes

    def scenario():
        return (yield from asd_lookup(ace.client(), ace.ctx.asd_address, room="jay"))

    records = ace.run(scenario())
    assert [r.name for r in records] == ["echo2"]


def test_lookup_by_name_and_connect(ace_two_echoes):
    """Fig. 7 flow: ask ASD, connect to the returned address."""
    ace = ace_two_echoes

    def scenario():
        return (yield from ace.client().call(
            Service(name="echo1"), ACECmdLine("echo", text="found")))

    reply = ace.run(scenario())
    assert (reply["text"], reply["by"]) == ("found", "echo1")


def test_lookup_one_raises_when_absent(ace_two_echoes):
    ace = ace_two_echoes

    def scenario():
        with pytest.raises(CallError, match="no service matching name='ghost'"):
            yield from ace.client().call(Service(name="ghost"), ACECmdLine("ping"))

    ace.run(scenario())


def test_list_services_includes_infrastructure(ace_two_echoes):
    ace = ace_two_echoes

    def scenario():
        reply = yield from ace.client().call(
            ace.ctx.asd_address, ACECmdLine("listServices")
        )
        return reply

    reply = ace.run(scenario())
    names = {w.split("|")[0] for w in reply["services"]}
    # roomdb and netlogger register with the ASD; the ASD itself does not.
    assert {"echo1", "echo2", "netlogger", "roomdb"} <= names


# -- RoomDB ---------------------------------------------------------------------

def test_roomdb_rooms_and_positions(ace_two_echoes):
    ace = ace_two_echoes

    def scenario():
        client = ace.client()
        yield from client.call(
            ace.ctx.roomdb_address,
            ACECmdLine("registerRoom", room="hawk", building="nichols",
                       dims=(10.0, 8.0, 3.0)),
        )
        yield from client.call(
            ace.ctx.roomdb_address,
            ACECmdLine("registerService", service="cam1", room="hawk",
                       host="host1", port=999, position=(1.0, 2.0, 2.5)),
        )
        where = yield from client.call(
            ace.ctx.roomdb_address, ACECmdLine("whereIs", service="cam1")
        )
        dims = yield from client.call(
            ace.ctx.roomdb_address, ACECmdLine("roomDims", room="hawk")
        )
        lookup = yield from client.call(
            ace.ctx.roomdb_address, ACECmdLine("lookupRoom", room="hawk")
        )
        return where, dims, lookup

    where, dims, lookup = ace.run(scenario())
    assert where["room"] == "hawk"
    assert where["position"] == (1.0, 2.0, 2.5)
    assert dims["dims"] == (10.0, 8.0, 3.0)
    assert dims["building"] == "nichols"
    names = {w.split("|")[0] for w in lookup["services"]}
    assert "cam1" in names and "echo1" in names


def test_roomdb_relocation(ace_two_echoes):
    ace = ace_two_echoes

    def scenario():
        client = ace.client()
        for room in ("hawk", "jay"):
            yield from client.call(
                ace.ctx.roomdb_address,
                ACECmdLine("registerService", service="mobile", room=room,
                           host="h", port=1),
            )
        reply = yield from client.call(
            ace.ctx.roomdb_address, ACECmdLine("whereIs", service="mobile")
        )
        return reply

    assert ace.run(scenario())["room"] == "jay"


def test_roomdb_unknown_service(ace_two_echoes):
    ace = ace_two_echoes

    def scenario():
        with pytest.raises(CallError, match="not placed"):
            yield from ace.client().call(
                ace.ctx.roomdb_address, ACECmdLine("whereIs", service="ghost")
            )

    ace.run(scenario())


# -- NetLogger ---------------------------------------------------------------------

def test_netlogger_query_and_count(ace_two_echoes):
    ace = ace_two_echoes

    def scenario():
        client = ace.client()
        for i in range(3):
            yield from client.call(
                ace.ctx.netlogger_address,
                ACECmdLine("logEvent", source="intruder", event="login_failed",
                           detail=f"attempt {i}"),
            )
        count = yield from client.call(
            ace.ctx.netlogger_address,
            ACECmdLine("countEvents", source="intruder", event="login_failed"),
        )
        query = yield from client.call(
            ace.ctx.netlogger_address,
            ACECmdLine("queryLog", source="intruder", limit=2),
        )
        return count, query

    count, query = ace.run(scenario())
    assert count["count"] == 3
    assert query["count"] == 3
    assert len(query["events"]) == 2  # limit honoured


def test_netlogger_since_window(ace_two_echoes):
    ace = ace_two_echoes

    def scenario():
        client = ace.client()
        yield from client.call(
            ace.ctx.netlogger_address,
            ACECmdLine("logEvent", source="s", event="e"),
        )
        cutoff = ace.sim.now
        yield ace.sim.timeout(1.0)
        yield from client.call(
            ace.ctx.netlogger_address,
            ACECmdLine("logEvent", source="s", event="e"),
        )
        reply = yield from client.call(
            ace.ctx.netlogger_address,
            ACECmdLine("countEvents", source="s", event="e", since=float(cutoff + 0.5)),
        )
        return reply

    assert ace.run(scenario())["count"] == 1


# -- credential encoding --------------------------------------------------------

def test_credential_encode_decode_roundtrip():
    text = 'KeyNote-Version: 2\nAuthorizer: POLICY\nLicensees: "a\\b"\nConditions: x == "1"'
    assert decode_credential(encode_credential(text)) == text


def test_credential_encoding_single_line():
    assert "\n" not in encode_credential("a\nb\nc")
