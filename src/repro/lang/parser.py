"""Recursive-descent parser: command string → ACECmdLine (Fig. 5's
"CmdParser"), with optional semantic checking against a daemon's
:class:`~repro.lang.semantics.CommandSemantics`.
"""

from __future__ import annotations

import re
import sys
from typing import List, Optional, Tuple

from repro.lang.command import ACECmdLine
from repro.lang.errors import ParseError
from repro.lang.lexer import Token, TokenKind, tokenize
from repro.lang.values import Value


class _Cursor:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.END:
            self.pos += 1
        return tok

    def accept(self, kind: TokenKind) -> Optional[Token]:
        if self.tokens[self.pos].kind is kind:
            return self.next()
        return None

    def expect(self, kind: TokenKind) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            raise ParseError(f"expected {kind.value}, got {tok.text!r}", tok.position)
        return self.next()


def _unquote(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text[1:-1])


def _scalar(token: Token) -> Value:
    if token.kind is TokenKind.INTEGER:
        return int(token.text)
    if token.kind is TokenKind.FLOAT:
        return float(token.text)
    if token.kind is TokenKind.WORD:
        return token.text
    if token.kind is TokenKind.STRING:
        return _unquote(token.text)
    raise ParseError(f"expected a value, got {token.text!r}", token.position)


def _parse_value(cur: _Cursor) -> Value:
    tok = cur.peek()
    if tok.kind is TokenKind.LBRACE:
        return _parse_braced(cur)
    return _scalar(cur.next())


def _parse_braced(cur: _Cursor) -> Tuple:
    """A ``{...}`` construct: VECTOR of scalars or ARRAY of vectors."""
    open_tok = cur.expect(TokenKind.LBRACE)
    items: List[Value] = []
    if cur.peek().kind is TokenKind.RBRACE:
        raise ParseError("empty vector/array", cur.peek().position)
    while True:
        tok = cur.peek()
        if tok.kind is TokenKind.LBRACE:
            items.append(_parse_braced(cur))
        else:
            items.append(_scalar(cur.next()))
        if cur.accept(TokenKind.COMMA):
            continue
        cur.expect(TokenKind.RBRACE)
        break
    vectors = [isinstance(item, tuple) for item in items]
    if any(vectors) and not all(vectors):
        raise ParseError("array mixes vectors and scalars", open_tok.position)
    return tuple(items)


# -- fast lane ---------------------------------------------------------------
#
# The dominant wire form by far is flat: ``name k1=v1 k2=v2;`` with each
# value a scalar or a flat vector ``{e1,e2,...}`` of scalars, and no arrays,
# escapes, comma separators or whitespace inside braces.  The fast
# lane recognizes exactly that shape with compiled regexes and builds
# the command without tokenizing; *anything* it is unsure about — including
# every malformed input — falls back to the full tokenizer/parser so error
# messages and accepted language are identical (property-tested).
#
# Equivalence notes, mirroring the lexer's rules:
# - Bare values are classified with the lexer's own INTEGER/FLOAT/WORD
#   regexes (fullmatch, in the lexer's tie-break order INTEGER before WORD,
#   FLOAT before WORD so ``2e3`` stays a FLOAT) — never with Python's more
#   permissive ``int()``/``float()`` acceptance.
# - The bare-token charset excludes *all* whitespace (the lexer only skips
#   space/tab; a NBSP or newline must keep falling through to the lexer's
#   "unexpected character" error).
# - Quoted values are accepted only without backslashes; escape handling
#   stays in the full parser.
# - Vector elements are delimited by the element pattern itself, never by
#   a brace-free run: ``v={"{"}``, ``v={"a,b","c}d"}`` and ``v={"a;b"}``
#   are legal.  A vector mixing integers, floats and strings/words is the
#   full parser's to reject.
# - Command names must start with a letter/underscore here: digit-led WORDs
#   ("3cam") are legal command names but need longest-match disambiguation
#   against INTEGER/FLOAT, so they take the slow path.

_ELEM = r"(?:\"[^\"\\]*\"|[^\s;{},\"=]+)"
_VECTOR = r"\{" + _ELEM + r"(?:," + _ELEM + r")*\}"
_FAST_LINE_RE = re.compile(
    r"[ \t]*([A-Za-z_][A-Za-z0-9_]*)"
    r"((?:[ \t]+[A-Za-z0-9_]+=(?:" + _ELEM + "|" + _VECTOR + r"))*)"
    r"[ \t]*;[ \t]*\Z"
)
_FAST_ARG_RE = re.compile(
    r"([A-Za-z0-9_]+)=(?:\"([^\"\\]*)\"|([^\s;{},\"=]+)|(" + _VECTOR + "))"
)
_FAST_ELEM_RE = re.compile(r"\"([^\"\\]*)\"|([^\s;{},\"=]+)")
# A bare token as the lexer classifies it: the alternatives are its
# INTEGER / FLOAT / WORD patterns, full-match, in its tie-break order;
# ``lastindex`` says which one matched.
_BARE_RE = re.compile(
    r"(-?\d+)\Z"
    r"|(-?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+)\Z"
    r"|([A-Za-z0-9_]+)\Z"
)
_BARE_TYPES = (None, int, float, str)

_intern = sys.intern


def _parse_fast(text: str) -> Optional[ACECmdLine]:
    """Parse the flat form, or return None to defer to the full parser."""
    line = _FAST_LINE_RE.match(text)
    if line is None:
        return None
    args: dict = {}
    n_args = 0
    for match in _FAST_ARG_RE.finditer(line.group(2)):
        n_args += 1
        key, value, bare, vector = match.groups()
        if bare is not None:
            kind = _BARE_RE.match(bare)
            if kind is None:
                return None  # e.g. "--5": the lexer rejects it with context
            value = _BARE_TYPES[kind.lastindex](bare)
        elif vector is not None:
            items = []
            for item, bare in _FAST_ELEM_RE.findall(vector):
                if bare:
                    kind = _BARE_RE.match(bare)
                    if kind is None:
                        return None
                    item = _BARE_TYPES[kind.lastindex](bare)
                items.append(item)
            if len(set(map(type, items))) != 1:
                return None  # mixed element types: the full parser's error
            value = tuple(items)
        args[_intern(key)] = value
    if len(args) != n_args:
        return None  # duplicate argument: full parser raises the exact error
    return ACECmdLine._from_normalized(_intern(line.group(1)), args)


def parse_command(text: str) -> ACECmdLine:
    """Parse one command string, e.g. ``setPosition x=1.0 y=2.0 z=0.5;``

    Tries the flat-form fast lane first and falls back to
    :func:`parse_command_full` for everything else (vectors, arrays,
    escaped strings, comma separators, and all malformed input).
    """
    command = _parse_fast(text)
    if command is not None:
        return command
    return parse_command_full(text)


def parse_command_full(text: str) -> ACECmdLine:
    """The complete tokenizer + recursive-descent path (every construct)."""
    cur = _Cursor(tokenize(text))
    name_tok = cur.peek()
    if name_tok.kind is not TokenKind.WORD:
        raise ParseError(f"expected command name, got {name_tok.text!r}", name_tok.position)
    cur.next()
    args: dict = {}
    while True:
        tok = cur.peek()
        if tok.kind is TokenKind.SEMICOLON:
            cur.next()
            break
        if tok.kind is TokenKind.END:
            raise ParseError("missing terminating ';'", tok.position)
        if tok.kind is not TokenKind.WORD and tok.kind is not TokenKind.INTEGER:
            raise ParseError(f"expected argument name, got {tok.text!r}", tok.position)
        name = cur.next().text
        cur.expect(TokenKind.EQUALS)
        if name in args:
            raise ParseError(f"duplicate argument {name!r}", tok.position)
        args[name] = _parse_value(cur)
        cur.accept(TokenKind.COMMA)  # optional separator
    tail = cur.peek()
    if tail.kind is not TokenKind.END:
        raise ParseError(f"trailing input after ';': {tail.text!r}", tail.position)
    try:
        return ACECmdLine(name_tok.text, args)
    except Exception as exc:  # value normalization errors carry positions poorly
        raise ParseError(str(exc))


class CommandParser:
    """A parser bound to a daemon's semantics (checks as it parses).

    This mirrors the paper's description: "This parser ... checks the
    incoming string for syntactic and semantic correctness (against those
    parameters defined within the receiving daemon/service)".
    """

    def __init__(self, semantics: Optional["CommandSemantics"] = None):
        self.semantics = semantics

    def parse(self, text: str) -> ACECmdLine:
        command = parse_command(text)
        if self.semantics is not None:
            command = self.semantics.validate(command)
        return command


from repro.lang.semantics import CommandSemantics  # noqa: E402  (cycle-breaking)
