"""Field escaping for ``|``-delimited wire records.

Several services flatten structured records into single ACE string values
with ``|`` separators (ASD ServiceRecords, NetLogger rows, obs span
exports).  These helpers make embedded ``|`` and ``\\`` survive the round
trip; they were born in ``repro.services.asd`` and promoted here so every
record format shares one implementation.
"""

from __future__ import annotations

from typing import List


def escape_field(value: str) -> str:
    """Make a record field safe around the ``|`` wire delimiter."""
    return value.replace("\\", "\\\\").replace("|", "\\|")


def split_wire(text: str) -> List[str]:
    """Split on unescaped ``|`` and undo the escaping."""
    if "\\" not in text:
        return text.split("|")
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


def join_wire(fields) -> str:
    """Escape and join fields with ``|`` (inverse of :func:`split_wire`)."""
    return "|".join(escape_field(str(f)) for f in fields)
