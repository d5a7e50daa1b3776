"""The record codecs against the character loops they replaced.

``split_wire``, ``_split_unescaped`` and ``_unescape_value`` return
``str.split`` / the value itself when the text holds no backslash.  The
loops they used to run on every input are kept here as oracles, and every
decoder built on them must agree with its oracle on text made of the
delimiters, the escape character and letters, including a trailing lone
backslash.
"""

from typing import Dict, List

from hypothesis import given, settings, strategies as st

from repro.core.replication import Version
from repro.lang.wire import split_wire
from repro.store.namespace import (
    NamespaceError,
    StoredObject,
    _split_unescaped,
    _unescape_value,
    check_path,
    decode_attrs,
    decode_object,
)

SETTINGS = dict(max_examples=400, deadline=None, derandomize=True)


def oracle_split_wire(text: str) -> List[str]:
    fields: List[str] = []
    current: List[str] = []
    it = iter(text)
    for ch in it:
        if ch == "\\":
            current.append(next(it, ""))
        elif ch == "|":
            fields.append("".join(current))
            current = []
        else:
            current.append(ch)
    fields.append("".join(current))
    return fields


def oracle_split_unescaped(text: str, sep: str) -> List[str]:
    out, buf, i = [], [], 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            buf.append(text[i : i + 2])
            i += 2
            continue
        if ch == sep:
            out.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
        i += 1
    out.append("".join(buf))
    return out


def oracle_unescape_value(value: str) -> str:
    table = {"\\": "\\", "a": "&", "e": "="}
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            out.append(table.get(value[i + 1], value[i + 1]))
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def oracle_decode_attrs(text: str) -> Dict[str, str]:
    if not text:
        return {}
    attrs: Dict[str, str] = {}
    for pair in oracle_split_unescaped(text, "&"):
        key, sep, value = pair.partition("=")
        if not sep:
            raise NamespaceError(f"malformed attribute pair {pair!r}")
        attrs[key] = oracle_unescape_value(value)
    return attrs


def oracle_decode_object(text: str) -> StoredObject:
    fields = oracle_split_wire(text)
    if len(fields) != 4:
        raise NamespaceError(f"malformed object record {text!r}")
    path, attrs_text, version_text, deleted = fields
    return StoredObject(
        check_path(path),
        oracle_decode_attrs(attrs_text),
        Version.from_wire(version_text),
        deleted=deleted == "1",
    )


def outcome(fn, *args):
    """A result, or the type and text of what was raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return (type(exc), str(exc))


#: the delimiters, the escape character and a few letters; a third of the
#: draws end in a lone backslash
body = st.text(alphabet=st.sampled_from("|\\&=aebx"), max_size=24)
text = st.one_of(body, body.map(lambda t: t + "\\"), body.map(lambda t: t.replace("\\", "")))
records = st.builds(
    lambda path, attrs, version, deleted, tail: "|".join(
        (path, attrs, version, deleted)
    ) + tail,
    st.sampled_from(["/a", "/a/b", "bad", ""]),
    text,
    st.sampled_from(["3@ps1", "0@x", "x@y", "7"]),
    st.sampled_from(["0", "1", ""]),
    st.sampled_from(["", "\\", "|", "|x"]),
)


@given(text)
@settings(**SETTINGS)
def test_split_wire_equals_the_loop(t):
    assert split_wire(t) == oracle_split_wire(t)


@given(text, st.sampled_from("&|="))
@settings(**SETTINGS)
def test_split_unescaped_equals_the_loop(t, sep):
    assert _split_unescaped(t, sep) == oracle_split_unescaped(t, sep)


@given(text)
@settings(**SETTINGS)
def test_unescape_value_equals_the_loop(t):
    assert _unescape_value(t) == oracle_unescape_value(t)


@given(text)
@settings(**SETTINGS)
def test_decode_attrs_equals_the_loop(t):
    assert outcome(decode_attrs, t) == outcome(oracle_decode_attrs, t)


@given(st.one_of(records, text))
@settings(**SETTINGS)
def test_decode_object_equals_the_loop(t):
    assert outcome(decode_object, t) == outcome(oracle_decode_object, t)
