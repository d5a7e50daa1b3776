"""Property/fuzz suite for the directory wire formats (scale-out plane).

Three layers, matching where each kind of hostile input can actually
occur:

* **Pure wire escaping** — ``ServiceRecord``/``DirEntry`` round-trip for
  *any* field content: embedded ``|``, backslashes, newlines, unicode,
  empty fields.  The ``escape_field``/``split_wire`` layer has no charset
  restriction of its own.
* **Real-daemon round-trip** — fields drawn from the command-language
  alphabet (the command layer rejects ``\\n\\r\\t``/control characters at
  the door, so nothing wilder can ever *reach* a directory) survive a
  full register → lookup → compare cycle through a live ASD.
* **Bounded chunks** — the E2 jumbo-reply regression: every ``lookup`` /
  ``listServices`` reply carries at most ``LOOKUP_CHUNK`` records, pages
  chain via ``next``, and the union over pages is exact.  Reverting the
  chunked ``_paged_reply`` fix makes these fail.

All hypothesis suites run with ``derandomize=True`` so CI is
deterministic and failures replay exactly.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import ACECmdLine
from repro.lang.values import ACELanguageError
from repro.lang.wire import escape_field, join_wire, split_wire
from repro.services.asd import DirEntry, ServiceDirectoryDaemon, ServiceRecord, asd_lookup

from tests.core.conftest import AceFixture, EchoDaemon

SETTINGS = dict(deadline=None, derandomize=True)

# Anything goes at the wire-escaping layer: pipes, backslashes, newlines,
# unicode, empties.  sampled_from leans on the separator/escape characters
# so every run hammers the interesting cases, not just the unicode bulk.
gnarly = st.text(
    alphabet=st.one_of(
        st.characters(codec="utf-8"),
        st.sampled_from(list('|\\\n\r\t"\'` ')),
    ),
    max_size=24,
)

# What can actually cross the command layer: quoted strings reject
# newline/tab/control characters but keep quotes, pipes, backslashes,
# unicode, and empty strings (same alphabet as tests/lang).
printable = st.text(
    alphabet=st.characters(
        codec="utf-8",
        categories=("L", "N", "P", "S", "Zs"),
        exclude_characters="\n\r\t",
    ),
    max_size=24,
)

ports = st.integers(min_value=0, max_value=65535)


def record_strategy(text):
    return st.builds(
        ServiceRecord, name=text, host=text, port=ports, room=text, cls=text
    )


# ----------------------------------------------------------------------
# Layer 1: pure wire escaping (no charset restriction)
# ----------------------------------------------------------------------
@given(record_strategy(gnarly))
@settings(max_examples=300, **SETTINGS)
def test_record_wire_round_trip(record):
    assert ServiceRecord.from_wire(record.to_wire()) == record


@given(record_strategy(gnarly))
@settings(max_examples=200, **SETTINGS)
def test_record_wire_has_exactly_five_fields(record):
    # The escaping must keep embedded separators from splitting fields.
    assert len(split_wire(record.to_wire())) == 5


@given(
    record_strategy(gnarly),
    st.floats(min_value=0, max_value=1e9, allow_nan=False),
    st.integers(min_value=0, max_value=2**31),
    gnarly,
    st.booleans(),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=300, **SETTINGS)
def test_dir_entry_round_trip(record, expires, seq, site, deleted, renewals):
    entry = DirEntry(
        record=record, expires_at=expires, seq=seq, site=site,
        deleted=deleted, renewals=renewals,
    )
    back = DirEntry.from_wire(entry.to_wire())
    assert back == entry                      # renewals excluded from eq...
    assert back.renewals == entry.renewals    # ...so check it explicitly
    assert back.version == entry.version


@given(st.lists(record_strategy(gnarly), min_size=1, max_size=8))
@settings(max_examples=150, **SETTINGS)
def test_multi_record_reply_round_trip(records):
    # A lookup reply's ``services`` vector: each element is one record
    # wire.  Joining them into a single digest-style line must also
    # survive (nested escaping, as used by dirReplicate/dirFetch).
    # min_size=1: an empty join is the one ambiguous case ("" splits to a
    # single empty field) and the protocol never sends an empty vector.
    wires = tuple(r.to_wire() for r in records)
    assert [ServiceRecord.from_wire(w) for w in wires] == records
    nested = join_wire(wires)
    assert list(split_wire(nested)) == list(wires)


@given(gnarly)
@settings(max_examples=200, **SETTINGS)
def test_escape_field_is_injective_per_field(text):
    # A field never leaks an unescaped separator, so splitting is exact.
    escaped = escape_field(text)
    assert split_wire(escaped) == [text]


# ----------------------------------------------------------------------
# Layer 2: round-trip through a real daemon
# ----------------------------------------------------------------------
_shared = {}


def _fixture():
    """One booted ASD shared across hypothesis examples (boot is ~the
    whole example budget otherwise).  Examples are independent: each
    registers under a fresh generated name and deregisters after."""
    if "ace" not in _shared:
        _shared["ace"] = AceFixture(seed=5, lease_duration=1e6).boot()
        _shared["n"] = 0
    return _shared["ace"]


@given(printable, printable, ports, printable, printable)
@settings(max_examples=40, **SETTINGS)
def test_daemon_round_trip(name_suffix, host, port, room, cls):
    ace = _fixture()
    _shared["n"] += 1
    name = f"prop{_shared['n']}.{name_suffix}"

    def scenario():
        client = ace.client(principal="fuzz")
        yield from client.call(
            ace.asd.address,
            ACECmdLine("register", name=name, host=host, port=port,
                       room=room, cls=cls),
        )
        records = yield from asd_lookup(client, ace.asd.address, name=name)
        yield from client.call(
            ace.asd.address, ACECmdLine("deregister", name=name)
        )
        return records

    records = ace.run(scenario())
    assert records == [
        ServiceRecord(name=name, host=host, port=port, room=room, cls=cls)
    ]


def test_command_layer_rejects_control_characters():
    # Documents why the daemon round-trip restricts its alphabet: a name
    # with a newline can never *reach* the directory in the first place.
    with pytest.raises(ACELanguageError):
        ACECmdLine("register", name="a\nb", host="h", port=1).to_string()


# ----------------------------------------------------------------------
# Layer 3: bounded chunks (the E2 jumbo-reply regression)
# ----------------------------------------------------------------------
N_BULK = int(ServiceDirectoryDaemon.LOOKUP_CHUNK * 2.5)


@pytest.fixture
def bulk_ace():
    ace = AceFixture(seed=9, lease_duration=1e6).boot()
    host = ace.net.make_host("farm", room="lab")
    for i in range(N_BULK):
        daemon = EchoDaemon(ace.ctx, f"bulk{i:03d}", host, room="lab")
        ace.add_daemon(daemon)
        daemon.start()
    ace.sim.run(until=ace.sim.now + 2.0)
    return ace


def _page_through(ace, command_name, **args):
    """Issue raw paged queries; return (pages, records_by_name)."""

    def scenario():
        client = ace.client(principal="pager")
        pages = []
        offset = 0
        while True:
            page_args = dict(args)
            if offset:
                page_args["offset"] = offset
            reply = yield from client.call(
                ace.asd.address, ACECmdLine(command_name, page_args)
            )
            pages.append(reply)
            nxt = reply.get("next")
            if not isinstance(nxt, int) or nxt <= offset:
                return pages
            offset = nxt

    pages = ace.run(scenario())
    names = []
    for page in pages:
        for wire in page.get("services", ()) or ():
            names.append(ServiceRecord.from_wire(wire).name)
    return pages, names


def test_every_reply_is_bounded(bulk_ace):
    chunk = ServiceDirectoryDaemon.LOOKUP_CHUNK
    pages, names = _page_through(bulk_ace, "lookup", cls="Echo")
    assert len(pages) >= 3                               # actually paged
    for page in pages:
        services = page.get("services", ()) or ()
        assert 0 < len(services) <= chunk                # the jumbo-reply fix
        assert page.get("count") == N_BULK               # total, not chunk size
        ttl = page.get("ttl")
        assert isinstance(ttl, float) and ttl > 0        # cache horizon
    bulk = [n for n in names if n.startswith("bulk")]
    assert sorted(bulk) == [f"bulk{i:03d}" for i in range(N_BULK)]
    assert len(set(names)) == len(names)                 # no page overlap


def test_list_services_is_bounded_too(bulk_ace):
    chunk = ServiceDirectoryDaemon.LOOKUP_CHUNK
    pages, names = _page_through(bulk_ace, "listServices")
    assert len(pages) >= 3
    assert all(len(p.get("services", ()) or ()) <= chunk for p in pages)
    assert len(set(names)) == len(names)
    assert {f"bulk{i:03d}" for i in range(N_BULK)} <= set(names)


def test_asd_lookup_pages_transparently(bulk_ace):
    def scenario():
        client = bulk_ace.client(principal="pager")
        records = yield from asd_lookup(client, bulk_ace.asd.address, cls="Echo")
        return records

    records = bulk_ace.run(scenario())
    assert len(records) == N_BULK
    assert len({r.name for r in records}) == N_BULK
