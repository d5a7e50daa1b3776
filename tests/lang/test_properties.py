"""Property-based tests: the command language round-trips exactly.

The paper's Fig. 5 claims the receiving daemon reconstructs "an exact copy
of the ACECmdLine object"; hypothesis hunts for counterexamples.  A plain
link hands the receiver the sent object itself and a shard pipe pickles
it, so the text, the object and the pickle must all be one command: equal,
with the same value types, the same text and the same wire size.  Every
suite is ``derandomize=True`` so CI is reproducible.
"""

import math
import pickle
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

import repro.lang
import repro.lang.parser as parser
from repro.lang import ACECmdLine, ACELanguageError, parse_command
from repro.lang.command import error_reply, ok_reply
from repro.lang.values import format_value, normalize_value

SETTINGS = dict(deadline=None, derandomize=True)

names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,15}", fullmatch=True)

ints = st.integers(min_value=-(2**31), max_value=2**31)
floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
words = st.from_regex(r"[A-Za-z0-9_]{1,20}", fullmatch=True)
printable = st.text(
    alphabet=st.characters(
        codec="utf-8",
        categories=("L", "N", "P", "S", "Zs"),
        exclude_characters="\n\r\t",
    ),
    min_size=0,
    max_size=30,
)


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Ratio(float):
    """A float subclass, as a unit-carrying type might be."""


class Label(str):
    """A str subclass, as a tagged identifier might be."""


#: scalar subclasses: on the wire each is the builtin it derives from
subclassed = st.one_of(
    st.sampled_from(Level), floats.map(Ratio), words.map(Label), printable.map(Label)
)

scalars = st.one_of(ints, floats, words, printable, subclassed)


def homogeneous_vector(element):
    return st.lists(element, min_size=1, max_size=6).map(tuple)


vectors = st.one_of(
    homogeneous_vector(ints),
    homogeneous_vector(floats),
    homogeneous_vector(words),
    homogeneous_vector(printable),
    homogeneous_vector(printable.map(Label)),
)

arrays = st.one_of(
    st.lists(homogeneous_vector(ints), min_size=1, max_size=4).map(tuple),
    st.lists(homogeneous_vector(floats), min_size=1, max_size=4).map(tuple),
    st.lists(homogeneous_vector(printable), min_size=1, max_size=3).map(tuple),
)

values = st.one_of(scalars, vectors, arrays)


@st.composite
def commands(draw):
    name = draw(names)
    arg_names = draw(st.lists(names, max_size=5, unique=True))
    return ACECmdLine(name, {a: draw(values) for a in arg_names})


@given(commands())
@settings(max_examples=300, **SETTINGS)
def test_roundtrip_is_identity(cmd):
    parsed = parse_command(cmd.to_string())
    assert parsed == cmd
    assert _types(parsed) == _types(cmd)


def _types(cmd):
    """Every value's exact type, through vectors and arrays."""
    def of(value):
        return (tuple, tuple(map(of, value))) if isinstance(value, tuple) else type(value)
    return {key: of(value) for key, value in cmd}


@given(commands())
@settings(max_examples=100, **SETTINGS)
def test_serialization_is_stable(cmd):
    once = cmd.to_string()
    again = parse_command(once).to_string()
    assert once == again


@given(values)
@settings(max_examples=300, **SETTINGS)
def test_value_format_parse_roundtrip(value):
    normalized = normalize_value(value)
    cmd = ACECmdLine("probe", v=normalized)
    parsed = parse_command(cmd.to_string())
    assert parsed["v"] == normalized
    assert type(parsed["v"]) is type(normalized)


@given(floats)
@settings(max_examples=200, **SETTINGS)
def test_float_values_roundtrip_bit_exact(x):
    parsed = parse_command(ACECmdLine("c", v=x).to_string())["v"]
    assert isinstance(parsed, float)
    assert parsed == x or (math.isnan(x) and math.isnan(parsed))


@given(st.integers())
@settings(max_examples=100, **SETTINGS)
def test_arbitrary_precision_integers(n):
    assert parse_command(ACECmdLine("c", v=n).to_string())["v"] == n


#: strings the quoting rules treat specially: quotes and backslashes are
#: escaped, characters outside the BMP take four UTF-8 bytes, and a
#: numeric-looking word ("42", "1e5") must be quoted to stay a string
quoted = st.text(
    alphabet=st.sampled_from(
        ['"', "\\", "a", "Z", "_", "1", "e", " ", "\u00e9", "\U0001f600", "\U00010348"]
    ),
    max_size=12,
)
numeric_words = st.one_of(
    st.sampled_from(["42", "1e5", "0", "007", "1E10", "12e34"]),
    st.integers(min_value=0).map(str),
)
sized_scalars = st.one_of(scalars, quoted, numeric_words)
sized_values = st.one_of(
    sized_scalars,
    homogeneous_vector(st.one_of(quoted, numeric_words)),
    st.lists(homogeneous_vector(quoted), min_size=1, max_size=3).map(tuple),
    vectors,
    arrays,
)


@st.composite
def sized_commands(draw):
    """A fresh command, or one derived the ways a daemon derives them."""
    name = draw(names)
    arg_names = draw(st.lists(names, max_size=5, unique=True))
    cmd = ACECmdLine(name, {a: draw(sized_values) for a in arg_names})
    results = {a: draw(sized_values) for a in draw(st.lists(names, max_size=3, unique=True))}
    how = draw(st.sampled_from(["new", "with", "without", "ok", "ok_cmd", "error"]))
    if how == "new":
        return cmd
    if how == "with":
        return cmd.with_args(**results)
    if how == "without":
        return cmd.without_args(*draw(st.lists(st.sampled_from(arg_names or ["x"]))))
    if how == "ok":
        return ok_reply(cmd, **results)
    if how == "ok_cmd":
        return ok_reply(cmd, **{**results, "cmd": draw(sized_values)})
    results.pop("reason", None)
    return error_reply(cmd, draw(sized_scalars), **results)


@given(sized_commands())
@settings(max_examples=300, **SETTINGS)
def test_wire_size_positive_and_consistent(cmd):
    """The size a link charges is the printed length, counted without
    printing: a command that only crosses simulated links is never text."""
    size = cmd.wire_size
    assert cmd._text is None
    assert size == len(cmd.to_string().encode("utf-8")) > 0


@given(words, names)
@settings(max_examples=100, **SETTINGS)
def test_a_trailing_newline_is_refused_or_round_trips(word, name):
    """A word or name that ends in a newline is not a word or a name, so
    it never prints bare: such a command is refused, or what it prints
    parses back to it."""
    builds = (
        lambda: ACECmdLine("c", v=word + "\n"),
        lambda: ACECmdLine(name + "\n"),
        lambda: ACECmdLine("c", {name + "\n": word}),
        lambda: ok_reply(ACECmdLine("c"), **{name + "\n": word}),
    )
    for build in builds:
        try:
            cmd = build()
            text = cmd.to_string()
        except ACELanguageError:
            continue
        assert parse_command(text) == cmd


@pytest.mark.parametrize(
    "value", ["a\x00b", "tab\there", "two\nlines", "del\x7f", "\x1b[0m", ("ok", "bad\r")]
)
def test_wire_size_refuses_a_control_character(value):
    """Sizing fails where printing does, so a send still fails where it
    did when the size was taken from the text."""
    cmd = ACECmdLine("probe", v=value)
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ACELanguageError, match="non-printable"):
            cmd.wire_size
    with pytest.raises(ACELanguageError, match="non-printable"):
        cmd.to_string()


@given(commands())
@settings(max_examples=200, **SETTINGS)
def test_pickle_is_the_same_command(cmd):
    """What a shard pipe delivers: equal, same types, same text."""
    again = pickle.loads(pickle.dumps(cmd))
    assert again == cmd
    assert _types(again) == _types(cmd)
    assert again.to_string() == cmd.to_string()


@given(commands())
@settings(max_examples=50, **SETTINGS)
def test_pickle_survives_a_wrapped_parser(cmd):
    """A profiler counting parses swaps ``parse_command`` for a local
    wrapper in every module that names it, and counts ``to_string`` too; a
    command must still pickle, and a pickle neither prints nor parses."""
    original, to_string = parser.parse_command, ACECmdLine.to_string
    calls = []

    def wrapper(text):
        calls.append("parse_command")
        return original(text)

    def printing(self):
        calls.append("to_string")
        return to_string(self)

    with pytest.MonkeyPatch.context() as patch:
        for module in (parser, repro.lang):
            patch.setattr(module, "parse_command", wrapper)
        patch.setattr(ACECmdLine, "to_string", printing)
        again = pickle.loads(pickle.dumps(cmd))
    assert calls == []
    assert again == cmd
    assert again.to_string() == cmd.to_string()


@given(st.text(max_size=40))
@settings(max_examples=200, **SETTINGS)
def test_parser_never_crashes_unexpectedly(text):
    """Arbitrary garbage either parses or raises a language error."""
    from repro.lang import ACELanguageError

    try:
        parse_command(text)
    except ACELanguageError:
        pass


def test_a_reply_keeps_a_handler_cmd_first():
    """A handler that names ``cmd=`` itself wins, in first position, as
    when the reply was built from ``{"cmd": request.name, **results}``."""
    request = ACECmdLine("psPut", path="/a")
    assert ok_reply(request, v=1).to_string() == "cmdOk cmd=psPut v=1;"
    assert ok_reply(request, v=1, cmd="other").to_string() == "cmdOk cmd=other v=1;"
    assert ok_reply(request).to_string() == "cmdOk cmd=psPut;"
    failed = error_reply(request, "no such path", cmd="psGet", code=4)
    assert failed.to_string() == 'cmdFailed cmd=psGet reason="no such path" code=4;'
