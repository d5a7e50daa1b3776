"""Edge coverage for the value model (repro.lang.values)."""

import pytest

from repro.lang.errors import ACELanguageError
from repro.lang.values import (
    _printable,
    format_value,
    is_word,
    normalize_value,
    scalar_kind,
)


def test_is_word_basic():
    assert is_word("hello_2")
    assert not is_word("two words")
    assert not is_word("")
    assert not is_word("dash-ed")


def test_is_word_numeric_ambiguity():
    # Digit-only / exponent-shaped words would re-parse as numbers.
    assert not is_word("42")
    assert not is_word("1e5")
    assert not is_word("12E3")
    assert is_word("4two")
    assert is_word("e5")


def test_scalar_kind():
    assert scalar_kind(1) == "integer"
    assert scalar_kind(1.5) == "float"
    assert scalar_kind("word") == "word"
    assert scalar_kind("two words") == "string"
    with pytest.raises(ACELanguageError):
        scalar_kind(True)
    with pytest.raises(ACELanguageError):
        scalar_kind(object())


def test_normalize_list_to_tuple():
    assert normalize_value([1, 2, 3]) == (1, 2, 3)
    assert normalize_value([[1], [2]]) == ((1,), (2,))


def test_normalize_rejects_empties_and_mixes():
    with pytest.raises(ACELanguageError, match="empty"):
        normalize_value([])
    with pytest.raises(ACELanguageError, match="mixes element types"):
        normalize_value([1, "x"])
    with pytest.raises(ACELanguageError, match="mixes vectors and scalars"):
        normalize_value([(1,), 2])
    with pytest.raises(ACELanguageError, match="mixes vector element types"):
        normalize_value([(1, 2), ("a",)])


def test_vector_word_and_string_share_bucket():
    # WORD ⊂ STRING per the grammar: {word,"two words"} is homogeneous.
    assert normalize_value(["word", "two words"]) == ("word", "two words")


def test_format_scalars():
    assert format_value(3) == "3"
    assert format_value(2.5) == "2.5"
    assert format_value(2.0) == "2.0"
    assert format_value("word") == "word"
    assert format_value("two words") == '"two words"'
    assert format_value('say "hi"') == '"say \\"hi\\""'
    assert format_value("42") == '"42"'  # numeric-looking string stays quoted


def test_format_float_edge_cases():
    assert format_value(1e20) in ("1e+20", "1e20")
    with pytest.raises(ACELanguageError, match="non-finite"):
        format_value(float("inf"))
    with pytest.raises(ACELanguageError, match="non-finite"):
        format_value(float("nan"))


def test_format_rejects_control_characters():
    with pytest.raises(ACELanguageError, match="non-printable"):
        format_value("line1\nline2")
    with pytest.raises(ACELanguageError, match="non-printable"):
        format_value("tab\there")


def test_printable_is_the_old_predicate_on_every_code_point():
    """One regex replaced a per-character loop; they agree on every code
    point, so exactly the same strings are refused."""
    differ = [
        c for c in range(0x110000) if _printable(chr(c)) != (c >= 32 and c != 127)
    ]
    assert differ == []
    assert _printable("a long printable string \U0001f600 " * 8)
    assert not _printable("a long printable string" * 8 + "\x7f" + "tail")


def test_format_vector_and_array():
    assert format_value((1, 2)) == "{1,2}"
    assert format_value(((1.5,), (2.5,))) == "{{1.5},{2.5}}"
    assert format_value(("a", "b c")) == '{a,"b c"}'


def test_bool_rejected_everywhere():
    with pytest.raises(ACELanguageError):
        normalize_value(True)
    with pytest.raises(ACELanguageError):
        format_value([True])


def test_scalar_subclasses_are_their_builtin():
    """An ``IntEnum`` member or a ``str`` subclass is the builtin its text
    parses back to, so the command a link hands over as itself equals the
    one the receiver would have parsed."""
    from enum import IntEnum

    from repro.lang import ACECmdLine, parse_command

    class Kind(IntEnum):
        A = 3

    class Tag(str):
        pass

    cmd = ACECmdLine("x", k=Kind.A, t=Tag("room_1"), v=[Kind.A, 4], w=(Tag("a b"), "c"))
    assert cmd == parse_command(cmd.to_string())
    assert cmd.to_string() == 'x k=3 t=room_1 v={3,4} w={"a b",c};'
    assert [type(cmd[key]) for key in "ktvw"] == [int, str, tuple, tuple]
    assert {type(v) for v in cmd["v"] + cmd["w"]} == {int, str}
