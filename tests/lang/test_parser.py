"""Unit tests for command parsing and the ACECmdLine object."""

import pytest

from hypothesis import given, settings, strategies as st

from repro.lang import ACECmdLine, ParseError, SemanticError, parse_command
from repro.lang.command import error_reply, is_error, is_ok, ok_reply


def test_parse_no_args():
    cmd = parse_command("getStatus;")
    assert cmd.name == "getStatus"
    assert cmd.args == {}


def test_parse_scalar_args():
    cmd = parse_command('setPosition x=1.5 y=-2 name=podium label="front wall";')
    assert cmd["x"] == 1.5
    assert cmd["y"] == -2
    assert isinstance(cmd["y"], int)
    assert cmd["name"] == "podium"
    assert cmd["label"] == "front wall"


def test_parse_comma_separated_args():
    cmd = parse_command("move x=1,y=2;")
    assert cmd.args == {"x": 1, "y": 2}


def test_parse_vector():
    cmd = parse_command("calibrate points={1,2,3};")
    assert cmd["points"] == (1, 2, 3)


def test_parse_float_vector():
    cmd = parse_command("path w={1.0,2.5};")
    assert cmd["w"] == (1.0, 2.5)
    assert all(isinstance(v, float) for v in cmd["w"])


def test_parse_string_vector():
    cmd = parse_command('rooms list={hawk,"big lab"};')
    assert cmd["list"] == ("hawk", "big lab")


def test_parse_array():
    cmd = parse_command("matrix m={{1,2},{3,4}};")
    assert cmd["m"] == ((1, 2), (3, 4))


def test_empty_vector_rejected():
    with pytest.raises(ParseError):
        parse_command("bad v={};")


def test_mixed_vector_rejected():
    with pytest.raises(ParseError):
        parse_command("bad v={1,x};")


def test_array_mixing_vector_and_scalar_rejected():
    with pytest.raises(ParseError):
        parse_command("bad v={{1,2},3};")


def test_missing_semicolon():
    with pytest.raises(ParseError, match="';'"):
        parse_command("cmd x=1")


def test_trailing_garbage():
    with pytest.raises(ParseError, match="trailing"):
        parse_command("cmd; extra")


def test_duplicate_argument():
    with pytest.raises(ParseError, match="duplicate"):
        parse_command("cmd x=1 x=2;")


def test_missing_equals():
    with pytest.raises(ParseError):
        parse_command("cmd x 1;")


def test_missing_command_name():
    with pytest.raises(ParseError):
        parse_command("=1;")


def test_roundtrip_exact_copy():
    original = ACECmdLine(
        "setParams",
        x=1.0,
        n=-3,
        mode="auto",
        label="pan & tilt",
        vec=(1, 2, 3),
        arr=((1.5, 2.5), (3.5, 4.5)),
    )
    assert parse_command(original.to_string()) == original


def test_int_float_distinction_survives_roundtrip():
    cmd = ACECmdLine("c", a=1, b=1.0)
    parsed = parse_command(cmd.to_string())
    assert isinstance(parsed["a"], int)
    assert isinstance(parsed["b"], float)
    assert parsed == cmd
    assert parsed != ACECmdLine("c", a=1.0, b=1.0)


def test_cmdline_accessors():
    cmd = ACECmdLine("c", n=5, f=2.5, s="word", v=(1, 2))
    assert cmd.int("n") == 5
    assert cmd.float("f") == 2.5
    assert cmd.float("n") == 5.0  # int widens
    assert cmd.str("s") == "word"
    assert cmd.vector("v") == (1, 2)
    assert cmd.get("missing") is None
    assert cmd.int("missing", 7) == 7
    with pytest.raises(SemanticError):
        cmd.int("s")
    with pytest.raises(SemanticError):
        cmd.require("nope")


def test_cmdline_rejects_bad_names():
    with pytest.raises(Exception):
        ACECmdLine("bad name")
    with pytest.raises(Exception):
        ACECmdLine("ok", **{"bad-arg": 1})


def test_cmdline_rejects_bools():
    with pytest.raises(Exception):
        ACECmdLine("c", flag=True)


def test_with_args_creates_copy():
    cmd = ACECmdLine("c", a=1)
    cmd2 = cmd.with_args(b=2)
    assert "b" not in cmd
    assert cmd2["a"] == 1 and cmd2["b"] == 2


def test_wire_size_matches_encoding():
    cmd = ACECmdLine("c", s="héllo")
    assert cmd.wire_size == len(cmd.to_string().encode("utf-8"))


def test_reply_helpers():
    req = ACECmdLine("doThing", x=1)
    good = ok_reply(req, result=42)
    bad = error_reply(req, "no permission")
    assert is_ok(good) and not is_error(good)
    assert is_error(bad) and not is_ok(bad)
    assert good["cmd"] == "doThing"
    assert bad["reason"] == "no permission"


def test_commands_hashable():
    a = ACECmdLine("c", x=1)
    b = parse_command("c x=1;")
    assert len({a, b}) == 1


# ---------------------------------------------------------------------------
# Lexing edges: what the one parser makes of a bare value, a vector element,
# a name, a space
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,key,expected", [
    ("probe v=2e3;", "v", 2000.0),          # exponent w/o dot is FLOAT
    ("probe v=-2E-3;", "v", -0.002),
    ("probe v=.5;", "v", 0.5),
    ("probe v=-7;", "v", -7),
    ("probe v=007;", "v", 7),
    ("probe v=1_0;", "v", "1_0"),           # not Python int literals!
    ("probe v=1e;", "v", "1e"),             # trailing e is a WORD
    ('probe v="2e3";', "v", "2e3"),         # quoting forces string
    ('probe v="";', "v", ""),
])
def test_value_classification_edges(text, key, expected):
    value = parse_command(text)[key]
    assert value == expected
    assert type(value) is type(expected)


_VECTORS = [
    ("probe v={1,2,3};", (1, 2, 3)),
    ("probe v={-7};", (-7,)),
    ("probe v={1.5,2e3,.5};", (1.5, 2000.0, 0.5)),
    ('probe v={on,"o f f",1e};', ("on", "o f f", "1e")),
    ('probe v={"1",a};', ("1", "a")),           # quoting forces string
    ('probe v={"{"};', ("{",)),                 # punctuation inside quotes
    ('probe v={"a,b","c}d"};', ("a,b", "c}d")),
    ('probe v={"a;b","k=v",""};', ("a;b", "k=v", "")),
    ('probe v={"x y"} w={2,3} n=4;', ("x y",)),
    ("probe v={1, 2};", (1, 2)),                # a space inside the braces
    ('probe v={"a\\"b"};', ('a"b',)),           # an escape inside an element
    ("probe v={{1,2},{3,4}};", ((1, 2), (3, 4))),  # an array: a vector of vectors
]


@pytest.mark.parametrize("text,expected", _VECTORS, ids=[text for text, _ in _VECTORS])
def test_vector_elements(text, expected):
    value = parse_command(text)["v"]
    assert value == expected
    assert [type(e) for e in value] == [type(e) for e in expected]


def test_digit_led_command_name():
    cmd = parse_command("3cam power=on;")
    assert (cmd.name, cmd.args) == ("3cam", {"power": "on"})


def test_escaped_quote_in_a_string():
    assert parse_command('probe v="a\\"b";')["v"] == 'a"b'


_REFUSED = [
    ("probe v=1 v=2;", "duplicate argument 'v'"),
    ("probe v=1", "missing terminating ';'"),
    ("probe v=on; trailing", "trailing input after ';'"),
    ("probe v={1,a};", "vector mixes element types"),
    ("probe v={};", "empty vector/array"),
    ("probe v={1,2.0};", "vector mixes element types"),
    ("probe v={1,2;", "expected rbrace, got ';'"),
    ("probe v={--5};", "unexpected character '-'"),
    ("probe v={1} v={2};", "duplicate argument 'v'"),
    ("probe\xa0v=1;", r"unexpected character '\\xa0'"),     # NBSP is not a space
    ("probe v=1\u20282;", r"unexpected character '\\u2028'"),  # nor a line separator
    ("probe v=1\n;", r"unexpected character '\\n'"),
    ("", "expected command name"),
]


@pytest.mark.parametrize("text,message", _REFUSED, ids=[text for text, _ in _REFUSED])
def test_edge_lines_are_refused(text, message):
    with pytest.raises(ParseError, match=message):
        parse_command(text)


_ints = st.integers(min_value=-10**9, max_value=10**9)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
# Escape-free strings: codec punctuation and spaces are legal inside quotes.
_strings = st.text(alphabet=st.sampled_from(list("abXY_019 {},;=.-|/@")), max_size=12)


def _vector_of(elements):
    return st.lists(elements, min_size=1, max_size=4)


@given(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True),
       st.lists(
           st.tuples(
               st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True),
               st.one_of(
                   _ints,
                   _floats,
                   st.from_regex(r"[A-Za-z0-9_]{1,12}", fullmatch=True),
                   _strings,
                   _vector_of(_ints),
                   _vector_of(_floats),
                   _vector_of(_strings),
               ),
           ),
           max_size=5,
           unique_by=lambda kv: kv[0],
       ))
@settings(max_examples=300, deadline=None)
def test_flat_commands_round_trip(name, pairs):
    """The flat form ``name k1=v1 k2={e1,e2};`` parses back to the command,
    each value's type kept (1 stays int, 1.0 stays float), element by
    element inside vectors."""
    cmd = ACECmdLine(name, dict(pairs))
    parsed = parse_command(cmd.to_string())
    assert parsed == cmd
    for key, value in cmd.args.items():
        assert type(parsed[key]) is type(value)
        if isinstance(value, tuple):
            assert [type(e) for e in parsed[key]] == [type(e) for e in value]


def test_parse_interns_names():
    a = parse_command("register name=cam port=1;")
    b = parse_command("register name=cam port=2;")
    assert a.name is b.name
    assert all(x is y for x, y in zip(a.args, b.args))


def test_wire_size_and_key_are_cached():
    cmd = parse_command("register name=cam port=1;")
    assert cmd.wire_size == cmd.wire_size == len(cmd.to_string().encode())
    # with_args/without_args reuse normalized values and revalidate only
    # the new keys.
    grown = cmd.with_args(room="lab")
    assert grown["name"] == "cam" and grown["room"] == "lab"
    shrunk = grown.without_args("port")
    assert "port" not in shrunk.args and shrunk["room"] == "lab"
    with pytest.raises(Exception):
        cmd.with_args(**{"bad key": 1})
