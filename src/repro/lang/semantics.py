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

from repro.lang.command import ACECmdLine, RESERVED_ARGS
from repro.lang.errors import SemanticError
from repro.lang.values import Value, is_word


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


@dataclass(frozen=True)
class ArgSpec:
    """One argument slot of a command."""

    name: str
    type: ArgType = ArgType.ANY
    required: bool = True
    default: Optional[Value] = None

    def check(self, command_name: str, value: Value) -> None:
        if self.type is ArgType.ANY:
            return
        actual = infer_type(value)
        if actual not in _COMPATIBLE[self.type]:
            raise SemanticError(
                f"{command_name}: argument {self.name!r} expects {self.type.value}, "
                f"got {actual.value} ({value!r})"
            )


@dataclass
class CommandSpec:
    """Declared shape of one command."""

    name: str
    args: Tuple[ArgSpec, ...] = ()
    description: str = ""

    def arg(self, name: str) -> Optional[ArgSpec]:
        for spec in self.args:
            if spec.name == name:
                return spec
        return None


class CommandSemantics:
    """The full command vocabulary of a daemon (extensible by inheritance)."""

    def __init__(self, parent: Optional["CommandSemantics"] = None, strict: bool = True):
        self.parent = parent
        self.strict = strict
        self._commands: Dict[str, CommandSpec] = {}
        # Flattened parent-chain view, rebuilt lazily: daemons define their
        # vocabulary once at startup and then look commands up per request,
        # so lookup must be one dict probe, not a chain walk.  A define()
        # anywhere up the chain invalidates every descendant's view.
        self._flat: Dict[str, CommandSpec] = {}
        self._flat_valid = False
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
        self._invalidate_flat()
        return spec

    def _invalidate_flat(self) -> None:
        self._flat_valid = False
        for child in self._children:
            child._invalidate_flat()

    def _rebuild_flat(self) -> Dict[str, CommandSpec]:
        if self.parent is not None:
            flat = dict(self.parent._flat_view())
        else:
            flat = {}
        flat.update(self._commands)
        self._flat = flat
        self._flat_valid = True
        return flat

    def _flat_view(self) -> Dict[str, CommandSpec]:
        return self._flat if self._flat_valid else self._rebuild_flat()

    def extend(self) -> "CommandSemantics":
        """Child semantics inheriting everything defined here (Fig. 6)."""
        child = CommandSemantics(parent=self, strict=self.strict)
        self._children.add(child)
        return child

    # -- lookup ------------------------------------------------------------------
    def lookup(self, name: str) -> Optional[CommandSpec]:
        if self._flat_valid:
            return self._flat.get(name)
        return self._rebuild_flat().get(name)

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
        spec = self.lookup(command.name)
        if spec is None:
            if self.strict:
                raise SemanticError(f"unknown command {command.name!r}")
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
                arg_spec.check(command.name, present[arg_name])
                matched += 1
            elif arg_spec.required:
                raise SemanticError(
                    f"{command.name}: missing required argument {arg_name!r}"
                )
            elif arg_spec.default is not None:
                if fills is None:
                    fills = {}
                fills[arg_name] = arg_spec.default
        if self.strict:
            n_reserved = sum(1 for r in RESERVED_ARGS if r in present)
            if matched + n_reserved < len(present):
                declared = {s.name for s in spec.args}
                unknown = ", ".join(
                    sorted(
                        k for k in present
                        if k not in declared and k not in RESERVED_ARGS
                    )
                )
                raise SemanticError(f"{command.name}: unknown argument(s) {unknown}")
        return command.with_args(**fills) if fills else command


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
