"""The ACE service command language (§2.2 of the paper).

Every command issued to an ACE service is built as an
:class:`~repro.lang.command.ACECmdLine` object, transmitted (as itself on a
plain link, as text where bytes are real), and checked on the receiving
side against that daemon's *command semantics* (Fig. 5).  The grammar is
the paper's, verbatim::

    <CMND>     := <CMNDNAME><space>[<ARGLIST>];
    <ARGUMENT> := <ARGNAME>'='<ARGVALUE>
    <ARGVALUE> := <INTEGER> | <FLOAT> | <WORD> | <STRING> | <VECTOR> | <ARRAY>
    <VECTOR>   := {v1,v2,...}          (homogeneous element types)
    <ARRAY>    := {<VECTOR>,<VECTOR>,...}

The implementation guarantees ``parse(serialize(cmd)) == cmd`` with every
value's type (verified by property tests), which is what lets the two
daemons in Fig. 5 hold an *exact copy* of the sender's ACECmdLine either way.
"""

from repro.lang.command import ACECmdLine
from repro.lang.errors import (
    ACELanguageError,
    ParseError,
    SemanticError,
)
from repro.lang.lexer import Token, TokenKind, tokenize
from repro.lang.parser import parse_command
from repro.lang.semantics import ArgSpec, ArgType, CommandSemantics, infer_type
from repro.lang.values import format_value

__all__ = [
    "ACECmdLine",
    "ACELanguageError",
    "ArgSpec",
    "ArgType",
    "CommandSemantics",
    "ParseError",
    "SemanticError",
    "Token",
    "TokenKind",
    "format_value",
    "infer_type",
    "parse_command",
    "tokenize",
]
