"""Recursive-descent parser: command string → ACECmdLine (Fig. 5's
"CmdParser").  A receiving daemon checks the result against its
:class:`~repro.lang.semantics.CommandSemantics`.
"""

from __future__ import annotations

import re
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


def parse_command(text: str) -> ACECmdLine:
    """Parse one command string, e.g. ``setPosition x=1.0 y=2.0 z=0.5;``"""
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

