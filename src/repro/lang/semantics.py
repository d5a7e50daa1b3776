"""Per-daemon command semantics (§2.3's "service's command semantics").

A :class:`CommandSemantics` declares, for each command a daemon understands,
the argument names, their ACE types, whether they're required, and defaults.
The receiving daemon's parser validates inbound commands against this
before dispatch; the sending side can validate before transmitting.
Semantics compose through the service hierarchy (Fig. 6): a child service's
semantics *extend* its parent's.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.lang.command import _NAME_OK, _intern, ACECmdLine, RESERVED_ARGS
from repro.lang.errors import ACELanguageError, SemanticError
from repro.lang.values import Value, is_word, normalize_value


class ArgType(enum.Enum):
    """Declared ACE argument types (the grammar's value categories)."""

    INTEGER = "integer"
    FLOAT = "float"
    #: INTEGER or FLOAT accepted (common for coordinates).
    NUMBER = "number"
    WORD = "word"
    STRING = "string"  # any string, including words
    VECTOR = "vector"
    ARRAY = "array"
    #: anything goes (used by pass-through services like the logger)
    ANY = "any"


def infer_type(value: Value) -> ArgType:
    """The most specific ArgType of a parsed value."""
    if isinstance(value, bool):
        raise SemanticError("booleans are not ACE values")
    if isinstance(value, int):
        return ArgType.INTEGER
    if isinstance(value, float):
        return ArgType.FLOAT
    if isinstance(value, str):
        return ArgType.WORD if is_word(value) else ArgType.STRING
    if isinstance(value, tuple):
        return ArgType.ARRAY if value and isinstance(value[0], tuple) else ArgType.VECTOR
    raise SemanticError(f"unknown value type {type(value).__name__}")


_COMPATIBLE = {
    ArgType.INTEGER: {ArgType.INTEGER},
    ArgType.FLOAT: {ArgType.FLOAT, ArgType.INTEGER},  # ints widen to float
    ArgType.NUMBER: {ArgType.INTEGER, ArgType.FLOAT},
    ArgType.WORD: {ArgType.WORD},
    ArgType.STRING: {ArgType.WORD, ArgType.STRING},
    ArgType.VECTOR: {ArgType.VECTOR},
    ArgType.ARRAY: {ArgType.ARRAY},
}

#: the declared types a value's exact type satisfies on its own; a WORD
#: must have its text looked at, and a rejection names the inferred type
_ACCEPTED_BY_TYPE = {
    str: (ArgType.STRING,),
    int: (ArgType.INTEGER, ArgType.FLOAT, ArgType.NUMBER),
    float: (ArgType.FLOAT, ArgType.NUMBER),
}


@dataclass(frozen=True)
class ArgSpec:
    """One argument slot of a command."""

    name: str
    type: ArgType = ArgType.ANY
    required: bool = True
    default: Optional[Value] = None

    def __post_init__(self) -> None:
        # Once, here: validation fills the default in as it is, and a bad
        # one fails its definition, not each request that omits it.
        if not _NAME_OK.match(self.name):
            raise SemanticError(f"invalid argument name {self.name!r}")
        object.__setattr__(self, "name", _intern(self.name))
        if self.default is None:
            return
        try:
            default = normalize_value(self.default)
        except ACELanguageError as exc:
            raise SemanticError(f"argument {self.name!r}: bad default: {exc}") from None
        self.check("default", default)
        object.__setattr__(self, "default", default)

    def check(self, command_name: str, value: Value) -> None:
        expected = self.type
        if expected is ArgType.ANY or expected in _ACCEPTED_BY_TYPE.get(type(value), ()):
            return
        actual = infer_type(value)
        if actual not in _COMPATIBLE[expected]:
            raise SemanticError(
                f"{command_name}: argument {self.name!r} expects {expected.value}, "
                f"got {actual.value} ({value!r})"
            )


@dataclass
class CommandSpec:
    """Declared shape of one command."""

    name: str
    args: Tuple[ArgSpec, ...] = ()
    description: str = ""


class CommandSemantics:
    """The full command vocabulary of a daemon (extensible by inheritance)."""

    def __init__(self, parent: Optional["CommandSemantics"] = None, strict: bool = True):
        self.parent = parent
        self.strict = strict
        self._commands: Dict[str, CommandSpec] = {}
        # Flattened parent-chain view, kept current: daemons define their
        # vocabulary once at startup and then look commands up per request,
        # so lookup must be one dict probe, not a chain walk.  A define()
        # anywhere up the chain rebuilds every descendant's view.
        self._flat: Dict[str, CommandSpec] = {} if parent is None else dict(parent._flat)
        self._children: "weakref.WeakSet[CommandSemantics]" = weakref.WeakSet()

    # -- definition -----------------------------------------------------------
    def define(
        self,
        name: str,
        *args: ArgSpec,
        description: str = "",
    ) -> CommandSpec:
        if name in self._commands:
            raise SemanticError(f"command {name!r} already defined")
        spec = CommandSpec(name, tuple(args), description)
        self._commands[name] = spec
        self._rebuild_flat()
        return spec

    def _rebuild_flat(self) -> None:
        parent = {} if self.parent is None else self.parent._flat
        self._flat = {**parent, **self._commands}
        for child in self._children:
            child._rebuild_flat()

    def extend(self) -> "CommandSemantics":
        """Child semantics inheriting everything defined here (Fig. 6)."""
        child = CommandSemantics(parent=self, strict=self.strict)
        self._children.add(child)
        return child

    # -- lookup ------------------------------------------------------------------
    def lookup(self, name: str) -> Optional[CommandSpec]:
        return self._flat.get(name)

    def commands(self) -> List[str]:
        names = set(self._commands)
        if self.parent is not None:
            names.update(self.parent.commands())
        return sorted(names)

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    # -- validation ------------------------------------------------------------
    def validate(self, command: ACECmdLine) -> ACECmdLine:
        """Check ``command`` and fill in defaults; returns the (possibly
        augmented) command.  Raises :class:`SemanticError` on violations."""
        name = command._name
        spec = self._flat.get(name)
        if spec is None:
            if self.strict:
                raise SemanticError(f"unknown command {name!r}")
            return command
        # Validate against the command's argument dict directly instead of
        # copying it per request; reserved args are invisible to semantics,
        # so a spec slot sharing a reserved name counts as absent.
        present = command._args
        fills: Optional[Dict[str, Any]] = None
        matched = 0
        for arg_spec in spec.args:
            arg_name = arg_spec.name
            if arg_name in present and arg_name not in RESERVED_ARGS:
                arg_spec.check(name, present[arg_name])
                matched += 1
            elif arg_spec.required:
                raise SemanticError(f"{name}: missing required argument {arg_name!r}")
            elif arg_spec.default is not None:
                if fills is None:
                    fills = {}
                fills[arg_name] = arg_spec.default
        if self.strict and matched < len(present):
            n_reserved = sum(1 for r in RESERVED_ARGS if r in present)
            if matched + n_reserved < len(present):
                declared = {s.name for s in spec.args}
                unknown = ", ".join(
                    sorted(
                        k for k in present
                        if k not in declared and k not in RESERVED_ARGS
                    )
                )
                raise SemanticError(f"{name}: unknown argument(s) {unknown}")
        # ArgSpec normalized each default; absent slots append, as with_args would
        return command if fills is None else ACECmdLine._from_normalized(name, {**present, **fills})


def reply_semantics() -> CommandSemantics:
    """The universal reply vocabulary every daemon shares."""
    sem = CommandSemantics(strict=False)
    sem.define(
        "cmdOk",
        ArgSpec("cmd", ArgType.WORD),
        description="successful completion of the named command",
    )
    sem.define(
        "cmdFailed",
        ArgSpec("cmd", ArgType.WORD),
        ArgSpec("reason", ArgType.STRING),
        description="failure report for the named command",
    )
    return sem
