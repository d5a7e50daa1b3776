"""The codec fast lane must be observationally identical to the full
parser (E24).

``parse_command`` tries a regex fast lane for the flat form
``name k1=v1 k2=v2;`` (values scalar or flat vector ``{e1,e2}``) and falls
back to the tokenizer for everything else.  The contract: for *any*
input, the fast lane either produces exactly what the full parser
produces, or it declines and the full parser decides — including which
error to raise.  Hypothesis sweeps the contract; the explicit cases pin
the classification edges that the fast lane gets wrong if it tries to be
clever (scientific notation, digit-led names, unicode spaces, duplicates,
escapes, punctuation inside quoted vector elements).
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.lang import ACECmdLine, ACELanguageError
from repro.lang.parser import _parse_fast, parse_command, parse_command_full

# Arbitrary junk *and* near-miss command lines: printable text biased
# toward codec punctuation so the sweep spends its budget near the
# grammar's edges rather than deep in unicode space.
near_grammar = st.text(
    alphabet=st.sampled_from(
        list("abcXYZ_0123456789") + list(' =";{},.-+eE\t') + ["é", " ", " "]
    ),
    min_size=0,
    max_size=60,
)


def _outcome(parser, text):
    try:
        return ("ok", parser(text))
    except ACELanguageError as exc:
        return ("error", type(exc).__name__)


@given(near_grammar)
@settings(max_examples=500, deadline=None)
def test_fast_lane_agrees_with_full_parser(text):
    fast_result = _parse_fast(text)
    full = _outcome(parse_command_full, text)
    if fast_result is not None:
        # The fast lane only speaks when it is certain — and must agree.
        assert full == ("ok", fast_result)
    # The public entry point always matches the full parser's verdict.
    assert _outcome(parse_command, text) == full


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
def test_flat_commands_take_the_fast_lane(name, pairs):
    cmd = ACECmdLine(name, dict(pairs))
    text = cmd.to_string()
    fast = _parse_fast(text)
    assert fast is not None, f"flat form missed the fast lane: {text!r}"
    assert fast == parse_command_full(text) == cmd
    # Value types survive classification (1 stays int, 1.0 stays float),
    # element by element inside vectors.
    for key, value in cmd.args.items():
        assert type(fast[key]) is type(value)
        if isinstance(value, tuple):
            assert [type(e) for e in fast[key]] == [type(e) for e in value]


# ---------------------------------------------------------------------------
# Classification edges
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
    fast = _parse_fast(text)
    full = parse_command_full(text)
    assert full[key] == expected
    assert type(full[key]) is type(expected)
    if fast is not None:
        assert fast == full


_FLAT_VECTORS = [
    ("probe v={1,2,3};", (1, 2, 3)),
    ("probe v={-7};", (-7,)),
    ("probe v={1.5,2e3,.5};", (1.5, 2000.0, 0.5)),
    ('probe v={on,"o f f",1e};', ("on", "o f f", "1e")),
    ('probe v={"1",a};', ("1", "a")),           # quoting forces string
    ('probe v={"{"};', ("{",)),                 # punctuation inside quotes
    ('probe v={"a,b","c}d"};', ("a,b", "c}d")),
    ('probe v={"a;b","k=v",""};', ("a;b", "k=v", "")),
    ('probe v={"x y"} w={2,3} n=4;', ("x y",)),
]


@pytest.mark.parametrize("text,expected", _FLAT_VECTORS,
                         ids=[text for text, _ in _FLAT_VECTORS])
def test_fast_lane_accepts_flat_vectors(text, expected):
    fast = _parse_fast(text)
    assert fast is not None, f"flat vector missed the fast lane: {text!r}"
    assert fast == parse_command_full(text)
    assert fast["v"] == expected
    assert [type(e) for e in fast["v"]] == [type(e) for e in expected]


@pytest.mark.parametrize("text", [
    "3cam power=on;",                        # digit-led name: lexed as INT
    "probe v=1 v=2;",                        # duplicate argument
    'probe v="a\\"b";',                      # escape: full parser only
    "probe v={{1,2},{3,4}};",                # array
    "probe v={1,a};",                        # mixed element types: an error
    "probe v={1,2.0};",
    "probe v={1, 2};",                       # whitespace inside the braces
    "probe v={};",                           # empty vector: an error
    'probe v={"a\\"b"};',                    # escape inside an element
    "probe v={1,2;",                         # unclosed
    "probe v={--5};",                        # element the lexer rejects
    "probe v={1} v={2};",                    # duplicate, vector-valued
    "probe v=1;",                       # unicode space is not a WS
    "probe v=1 2;",                     # line separator inside value
    "probe v=1",                             # missing semicolon
    "probe v=on; trailing",
    "",
])
def test_fast_lane_declines_hard_cases(text):
    assert _parse_fast(text) is None
    # ...and the public entry point still matches the full parser exactly.
    assert _outcome(parse_command, text) == _outcome(parse_command_full, text)


def test_fast_lane_interns_names():
    a = parse_command("register name=cam port=1;")
    b = parse_command("register name=cam port=2;")
    assert a.name is b.name
    assert list(a.args) == list(b.args)


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
