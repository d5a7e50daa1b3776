"""Value model and serialization for ACE argument values.

Python-native representation:

=========  =======================================
ACE type   Python type
=========  =======================================
INTEGER    ``int`` (not bool)
FLOAT      ``float``
WORD       ``str`` matching ``[A-Za-z0-9_]+``
STRING     any other ``str`` (serialized quoted)
VECTOR     ``tuple`` of homogeneous scalars
ARRAY      ``tuple`` of VECTORs (same element type)
=========  =======================================

Tuples (not lists) are used so values are hashable and commands can be
compared/deduplicated; the parser produces tuples, and ``format_value``
accepts lists for convenience but normalizes.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Sequence, Tuple, Union

from repro.lang.errors import ACELanguageError

_WORD_RE = re.compile(r"[A-Za-z0-9_]+\Z")
# Word-shaped strings the lexer would read back as numbers ("42", "1e5"):
# these must be quoted to survive the round trip as strings.
_NUMERIC_AMBIGUOUS_RE = re.compile(r"^\d+(?:[eE]\d+)?$")

Scalar = Union[int, float, str]
Value = Union[Scalar, Tuple]


def is_word(text: str) -> bool:
    """True when ``text`` can be serialized bare (no quotes) and still
    parse back as a WORD rather than a number."""
    return bool(_WORD_RE.match(text)) and not _NUMERIC_AMBIGUOUS_RE.match(text)


def _format_scalar(value: Scalar) -> str:
    if isinstance(value, bool):
        raise ACELanguageError("booleans are not an ACE type; use words on/off")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ACELanguageError(f"non-finite floats are not serializable: {value!r}")
        # repr round-trips floats exactly; ensure a '.'/exponent so the
        # parser sees a FLOAT, not an INTEGER.
        text = repr(value)
        if "." not in text and "e" not in text:
            text += ".0"
        return text
    if isinstance(value, str):
        if is_word(value):
            return value
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        if not _printable(value):
            raise ACELanguageError(f"string contains non-printable characters: {value!r}")
        return f'"{escaped}"'
    raise ACELanguageError(f"unsupported ACE value type {type(value).__name__}")


# Commands repeat the same scalars constantly (status words, coordinates,
# sequence numbers), and formatting a string runs two regexes.  ``typed=True``
# keeps 1, 1.0 and True from colliding as cache keys (booleans must still
# raise).  Exceptions are not cached by lru_cache, so invalid scalars keep
# raising on every call.
_format_scalar_cached = lru_cache(maxsize=4096, typed=True)(_format_scalar)


#: the characters a string may not carry: C0 controls and DEL (anything
#: else survives quoting)
_CONTROL_RE = re.compile(r"[\x00-\x1f\x7f]")


def _printable(text: str) -> bool:
    return _CONTROL_RE.search(text) is None


def scalar_kind(value: Scalar) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ACELanguageError(f"not an ACE scalar: {value!r}")
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "float"
    return "word" if is_word(value) else "string"


#: the exact builtin each scalar subclass is on the wire
_EXACT = ((int, int.__int__), (float, float.__float__), (str, str.__str__))
#: a vector element's bucket by its (exact, normalized) type
_BUCKETS = {int: "integer", float: "float", str: "string"}


def normalize_value(value: Any) -> Value:
    """Coerce lists to tuples, scalars to their exact builtin type, and
    validate homogeneity of vectors/arrays.

    A subclass (an ``IntEnum`` member, a ``str`` subclass) becomes the
    ``int`` / ``float`` / ``str`` its wire text parses back to, so a command
    equals the receiver's copy whether it crossed a link as text or as
    itself."""
    kind = type(value)
    if kind is str or kind is int or kind is float:
        return value
    if isinstance(value, (list, tuple)):
        items = tuple(normalize_value(v) for v in value)
        if not items:
            raise ACELanguageError("empty vectors/arrays cannot be serialized")
        if all(isinstance(v, tuple) for v in items):
            kinds = {_vector_kind(v) for v in items}
            if len(kinds) > 1:
                raise ACELanguageError(f"array mixes vector element types: {sorted(kinds)}")
            return items
        if any(isinstance(v, tuple) for v in items):
            raise ACELanguageError("array mixes vectors and scalars")
        kinds = {_element_bucket(v) for v in items}
        if len(kinds) > 1:
            raise ACELanguageError(f"vector mixes element types: {sorted(kinds)}")
        return items
    if isinstance(value, bool):
        raise ACELanguageError("booleans are not an ACE type; use words on/off")
    for base, exact in _EXACT:
        if isinstance(value, base):
            return exact(value)
    raise ACELanguageError(f"unsupported ACE value type {type(value).__name__}")


def _element_bucket(value: Scalar) -> str:
    """Vectors are homogeneous by ACE type; words and strings share STRING's
    bucket (the paper's grammar allows {WORD,...} | {STRING,...} and every
    word is a string), so a normalized element's type is its bucket."""
    return _BUCKETS[type(value)]


def _vector_kind(vector: Tuple) -> str:
    if not vector or any(isinstance(v, tuple) for v in vector):
        raise ACELanguageError("array elements must be non-empty scalar vectors")
    kinds = {_element_bucket(v) for v in vector}
    if len(kinds) > 1:
        raise ACELanguageError(f"vector mixes element types: {sorted(kinds)}")
    return kinds.pop()


def format_value(value: Any) -> str:
    """Serialize a (normalized or raw) value to its wire form."""
    value = normalize_value(value)
    return format_normalized(value)


def format_normalized(value: Value) -> str:
    """Serialize a value that is already normalized (as produced by
    :func:`normalize_value` or the parser) without re-validating it —
    the hot path for ``ACECmdLine.to_string``."""
    if isinstance(value, tuple):
        if isinstance(value[0], tuple):  # ARRAY
            return "{" + ",".join(format_normalized(v) for v in value) + "}"
        return "{" + ",".join(_format_scalar_cached(v) for v in value) + "}"
    return _format_scalar_cached(value)


def normalized_size(value: Value) -> int:
    """``len(format_normalized(value).encode("utf-8"))``, counted from the
    cached scalar texts without joining them — what a command's
    ``wire_size`` charges a value.  Raises where formatting would."""
    if isinstance(value, tuple):
        # "{" + ",".join(items) + "}": two braces and len - 1 commas
        return sum(map(normalized_size, value)) + len(value) + 1
    text = _format_scalar_cached(value)
    return len(text) if text.isascii() else len(text.encode("utf-8"))
