"""The ACECmdLine object (§2.2): name + ordered named arguments.

Commands are immutable once built.  ``str(cmd)`` is the wire form; commands
compare equal iff their names and argument mappings (including value types:
``1`` is an INTEGER, ``1.0`` a FLOAT) are equal, which is exactly the
"exact copy" the paper's Fig. 5 promises the receiving daemon.  Being
immutable, a command crosses a simulated link as itself, charged a
``wire_size`` counted without printing it; it becomes text only where bytes
are real (an SSL record, a checkpoint); between processes it is pickled as
its name and arguments.
"""

from __future__ import annotations

import re
import sys
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from repro.lang.errors import ACELanguageError, SemanticError
from repro.lang.values import (
    Value, format_normalized, normalize_value, normalized_size,
)

_NAME_OK = re.compile(r"[A-Za-z0-9_]+\Z")
_intern = sys.intern

#: the reserved argument carrying the repro.obs trace context (a WORD like
#: ``t3_s12_s11``); reserved arguments ride on any command without being
#: part of its declared semantics — validation skips them.
OBS_TRACE_ARG = "o_tc"
#: reserved arguments carrying the client's idempotency stamp (§ recovery
#: plane): a per-client id plus a per-logical-call sequence number.  A
#: daemon that sees the same ``(o_cid, o_cseq)`` twice replays its cached
#: reply instead of re-executing — that is what turns at-least-once
#: retries into effectively exactly-once across a daemon restart.
CLIENT_ID_ARG = "o_cid"
CLIENT_SEQ_ARG = "o_cseq"
RESERVED_ARGS = frozenset({OBS_TRACE_ARG, CLIENT_ID_ARG, CLIENT_SEQ_ARG})


class ACECmdLine:
    """An ACE command line: ``name arg1=value1 arg2=value2 ... ;``"""

    __slots__ = ("_name", "_args", "_text", "_key_memo", "_wire_size")

    def __init__(self, name: str, args: Optional[Mapping[str, Any]] = None, /, **kwargs: Any):
        if not _NAME_OK.match(name):
            raise ACELanguageError(f"invalid command name {name!r}")
        merged: Dict[str, Value] = {}
        for source in (args or {}), kwargs:
            for key, value in source.items():
                if not _NAME_OK.match(key):
                    raise ACELanguageError(f"invalid argument name {key!r}")
                if key in merged:
                    raise ACELanguageError(f"duplicate argument {key!r}")
                merged[_intern(key)] = normalize_value(value)
        # Command and argument names repeat across millions of wire lines;
        # interning makes later dict lookups and equality checks pointer
        # comparisons.
        self._name = _intern(name)
        self._args = merged
        self._text: Optional[str] = None
        self._key_memo: Optional[Tuple] = None
        self._wire_size: Optional[int] = None

    @classmethod
    def _from_normalized(cls, name: str, args: Dict[str, Value]) -> "ACECmdLine":
        """Internal constructor bypass for callers that guarantee ``name``
        and every key/value in ``args`` are already validated, interned and
        normalized (``with_args``/``without_args``, unpickling).
        ``args`` ownership transfers to the new command."""
        cmd = cls.__new__(cls)
        cmd._name = name
        cmd._args = args
        cmd._text = None
        cmd._key_memo = None
        cmd._wire_size = None
        return cmd

    # -- accessors --------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def args(self) -> Dict[str, Value]:
        return dict(self._args)

    def __contains__(self, key: str) -> bool:
        return key in self._args

    def __iter__(self) -> Iterator[Tuple[str, Value]]:
        return iter(self._args.items())

    def get(self, key: str, default: Any = None) -> Any:
        return self._args.get(key, default)

    def __getitem__(self, key: str) -> Value:
        try:
            return self._args[key]
        except KeyError:
            raise SemanticError(f"command {self._name!r} has no argument {key!r}")

    def require(self, key: str) -> Value:
        return self[key]

    def int(self, key: str, default: Optional[int] = None) -> int:
        return self._typed(key, int, default)

    def float(self, key: str, default: Optional[float] = None) -> float:
        value = self._args.get(key)
        if value is None:
            if default is None:
                raise SemanticError(f"command {self._name!r} missing argument {key!r}")
            return default
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SemanticError(f"argument {key!r} is not numeric: {value!r}")
        return float(value)

    def str(self, key: str, default: Optional[str] = None) -> str:
        return self._typed(key, str, default)

    def vector(self, key: str, default: Optional[tuple] = None) -> tuple:
        return self._typed(key, tuple, default)

    def _typed(self, key: str, typ: type, default: Any) -> Any:
        value = self._args.get(key)
        if value is None:
            if default is None:
                raise SemanticError(f"command {self._name!r} missing argument {key!r}")
            return default
        if not isinstance(value, typ) or isinstance(value, bool):
            raise SemanticError(
                f"argument {key!r} of {self._name!r} is {type(value).__name__}, "
                f"expected {typ.__name__}"
            )
        return value

    # -- derivation ---------------------------------------------------------
    def with_args(self, **updates: Any) -> "ACECmdLine":
        """A copy with arguments added/replaced.  Existing arguments are
        reused as-is (they are already normalized); only the updates pay
        for validation."""
        merged = dict(self._args)
        for key, value in updates.items():
            if key not in merged and not _NAME_OK.match(key):
                raise ACELanguageError(f"invalid argument name {key!r}")
            merged[_intern(key)] = normalize_value(value)
        return ACECmdLine._from_normalized(self._name, merged)

    def without_args(self, *names: str) -> "ACECmdLine":
        """A copy with the named arguments removed (missing names are
        ignored) — e.g. stripping reserved observability arguments before
        re-forwarding a command as a notification payload."""
        if not any(n in self._args for n in names):
            return self
        kept = {k: v for k, v in self._args.items() if k not in names}
        return ACECmdLine._from_normalized(self._name, kept)

    # -- serialization --------------------------------------------------------
    def to_string(self) -> str:
        if self._text is None:
            if self._args:
                body = " ".join(f"{k}={format_normalized(v)}" for k, v in self._args.items())
                self._text = f"{self._name} {body};"
            else:
                self._text = f"{self._name};"
        return self._text

    def __str__(self) -> str:
        return self.to_string()

    @property
    def wire_size(self) -> int:
        """``len(self.to_string().encode("utf-8"))``, counted without
        building the text: a command that only crosses simulated links is
        never printed.  Names are ASCII, so each argument costs its name
        plus ``" "`` and ``"="``, and the line its name plus ``";"``."""
        size = self._wire_size
        if size is None:
            size = len(self._name) + 1
            for key, value in self._args.items():
                size += len(key) + 2 + normalized_size(value)
            self._wire_size = size
        return size

    # -- equality ---------------------------------------------------------------
    def _key(self) -> Tuple:
        key = self._key_memo
        if key is None:
            key = self._key_memo = (
                self._name,
                tuple(sorted((k, type(v).__name__, v) for k, v in self._args.items())),
            )
        return key

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, ACECmdLine):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ACECmdLine({self.to_string()!r})"

    def __reduce__(self):
        # Across a process boundary (a shard pipe) a command travels as its
        # name and its normalized arguments; nothing is printed or parsed.
        return _unpickle, (self._name, self._args)


def _unpickle(name: str, args: Dict[str, Value]) -> ACECmdLine:
    """Rebuild a pickled command.  Unpickled strings are not interned, so
    this interns the name and the argument names again."""
    return ACECmdLine._from_normalized(
        _intern(name), {_intern(key): value for key, value in args.items()})


# Conventional reply commands every daemon understands (§2.2: "return
# commands are used to reply on the status of the attempted command").
# Both start from the request's name, already checked and interned; only the
# handler's results pay for validation (a ``cmd=`` among them wins, in first
# position).

def ok_reply(request: ACECmdLine, **results: Any) -> ACECmdLine:
    reply = ACECmdLine._from_normalized("cmdOk", {"cmd": request._name})
    return reply.with_args(**results) if results else reply


def error_reply(request: ACECmdLine, reason: str, **extra: Any) -> ACECmdLine:
    return ACECmdLine._from_normalized(
        "cmdFailed", {"cmd": request._name}
    ).with_args(reason=reason, **extra)


def is_ok(reply: ACECmdLine) -> bool:
    return reply._name == "cmdOk"


def is_error(reply: ACECmdLine) -> bool:
    return reply._name == "cmdFailed"
