"""Causal trace context carried across the wire (the `repro.obs` W3C-ish
propagation layer).

A :class:`TraceContext` names one node of a request's span tree:
``trace_id`` identifies the whole end-to-end request, ``span_id`` the
current operation, ``parent_id`` the operation that caused it.  The context
rides on every ACE command as one reserved WORD argument (``o_tc``) so it
survives the command language's string round trip without touching any
daemon's declared semantics — :meth:`CommandSemantics.validate` skips
reserved arguments (see ``repro.lang.command.RESERVED_ARGS``).

Wire form: ``o_tc=<trace>_<span>_<parent>`` where the ids are ``t<n>`` /
``s<n>`` words and a missing parent is ``x`` — e.g. ``o_tc=t3_s12_s11``.
Only *sampled* traces are ever injected, so presence of the argument is
the sampling decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.lang import ACECmdLine
from repro.lang.command import OBS_TRACE_ARG


@dataclass(frozen=True)
class TraceContext:
    """Identity of one span: which trace, which span, caused by whom."""

    trace_id: str
    span_id: str
    parent_id: str = ""

    def to_wire(self) -> str:
        return f"{self.trace_id}_{self.span_id}_{self.parent_id or 'x'}"

    @classmethod
    def from_wire(cls, text: str) -> Optional["TraceContext"]:
        parts = text.split("_")
        if len(parts) != 3 or not parts[0] or not parts[1]:
            return None
        return cls(parts[0], parts[1], "" if parts[2] == "x" else parts[2])


def inject(command: ACECmdLine, context: Optional[TraceContext]) -> ACECmdLine:
    """A copy of ``command`` carrying ``context`` (or ``command`` itself
    when there is nothing to carry)."""
    if context is None:
        return command
    return command.with_args(**{OBS_TRACE_ARG: context.to_wire()})


def extract(command: ACECmdLine) -> Optional[TraceContext]:
    """The trace context a command arrived with, if any."""
    raw = command.get(OBS_TRACE_ARG)
    if not isinstance(raw, str):
        return None
    return TraceContext.from_wire(raw)
