"""KeyNote trust management (RFC 2704 subset) — §3.2 of the paper.

ACE stores KeyNote *assertions* in the Authorization Database and consults a
compliance checker before executing any command (Fig. 10).  This module
implements the working core of RFC 2704:

* the assertion format (``Authorizer`` / ``Licensees`` / ``Conditions`` /
  ``Signature`` fields, ``Local-Constants`` substitution);
* licensee expressions with ``&&``, ``||``, parentheses, and ``k-of(...)``
  thresholds;
* the conditions expression language (comparisons, boolean operators,
  string and numeric literals, attribute references) mapping to an ordered
  set of *compliance values* (e.g. ``deny < permit``);
* the delegation-graph compliance checker: requester principals start at
  maximum trust and assertions propagate (capped) trust toward ``POLICY``
  via fixpoint iteration, so delegation chains of any depth — including
  cycles — resolve deterministically;
* credential signature verification against the toy Schnorr scheme
  (policy assertions are locally trusted and unsigned, per the RFC).

The subset is documented where it diverges: no regex operator, no float
dot-notation versions, no nested assertion-per-licensee signature formats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.security.crypto import KeyPair, verify_signature

POLICY = "POLICY"

#: Default compliance-value ordering, least to most permissive.
DEFAULT_VALUES: Tuple[str, ...] = ("deny", "permit")


class KeyNoteError(Exception):
    """Malformed assertion, bad signature, or evaluation failure."""


ActionAttributes = Mapping[str, Union[str, int, float]]


# ---------------------------------------------------------------------------
# Licensee expressions
# ---------------------------------------------------------------------------

class LicPrincipal:
    """A single licensee principal."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def value(self, ratings: Mapping[str, int], floor: int) -> int:
        return ratings.get(self.name, floor)


class LicAnd:
    """Conjunction: every operand must reach the value (min)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence):
        self.parts = list(parts)

    def value(self, ratings: Mapping[str, int], floor: int) -> int:
        return min(p.value(ratings, floor) for p in self.parts)


class LicOr:
    """Alternatives: the best operand decides (max)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence):
        self.parts = list(parts)

    def value(self, ratings: Mapping[str, int], floor: int) -> int:
        return max(p.value(ratings, floor) for p in self.parts)


class LicThreshold:
    """``k-of(p1, p2, ...)``: the k-th largest sub-value."""

    __slots__ = ("k", "parts")

    def __init__(self, k: int, parts: Sequence):
        if not 1 <= k <= len(parts):
            raise KeyNoteError(f"threshold k={k} out of range for {len(parts)} licensees")
        self.k = k
        self.parts = list(parts)

    def value(self, ratings: Mapping[str, int], floor: int) -> int:
        vals = sorted((p.value(ratings, floor) for p in self.parts), reverse=True)
        return vals[self.k - 1]


# ---------------------------------------------------------------------------
# Tokenizer shared by the licensee and condition grammars
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<kof>\d+-of\b)
      | (?P<number>-?\d+\.\d+|-?\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_.:-]*)
      | (?P<op><=|>=|==|!=|&&|\|\||->|[-<>!()+,;*])
    )
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise KeyNoteError(f"cannot tokenize {text[pos:pos + 20]!r}")
        pos = match.end()
        for kind in ("string", "kof", "number", "ident", "op"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    return tokens


class _TokenStream:
    def __init__(self, tokens: List[Tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[Tuple[str, str]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise KeyNoteError("unexpected end of input")
        self.pos += 1
        return tok

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[str]:
        tok = self.peek()
        if tok and tok[0] == kind and (value is None or tok[1] == value):
            self.pos += 1
            return tok[1]
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> str:
        got = self.accept(kind, value)
        if got is None:
            raise KeyNoteError(f"expected {value or kind!r}, got {self.peek()!r}")
        return got

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)


def _unquote(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text[1:-1])


# ---------------------------------------------------------------------------
# Licensee parser
# ---------------------------------------------------------------------------

def parse_licensees(text: str, constants: Mapping[str, str]) -> Union[
    LicPrincipal, LicAnd, LicOr, LicThreshold
]:
    stream = _TokenStream(_tokenize(text))
    expr = _parse_lic_or(stream, constants)
    if not stream.at_end():
        raise KeyNoteError(f"trailing tokens in licensees: {stream.peek()!r}")
    return expr


def _parse_lic_or(stream: _TokenStream, consts: Mapping[str, str]):
    parts = [_parse_lic_and(stream, consts)]
    while stream.accept("op", "||"):
        parts.append(_parse_lic_and(stream, consts))
    return parts[0] if len(parts) == 1 else LicOr(parts)


def _parse_lic_and(stream: _TokenStream, consts: Mapping[str, str]):
    parts = [_parse_lic_primary(stream, consts)]
    while stream.accept("op", "&&"):
        parts.append(_parse_lic_primary(stream, consts))
    return parts[0] if len(parts) == 1 else LicAnd(parts)


def _parse_lic_primary(stream: _TokenStream, consts: Mapping[str, str]):
    if stream.accept("op", "("):
        inner = _parse_lic_or(stream, consts)
        stream.expect("op", ")")
        return inner
    tok = stream.peek()
    if tok and tok[0] == "kof":
        stream.next()
        k = int(tok[1].split("-")[0])
        stream.expect("op", "(")
        parts = [_parse_lic_or(stream, consts)]
        while stream.accept("op", ","):
            parts.append(_parse_lic_or(stream, consts))
        stream.expect("op", ")")
        return LicThreshold(k, parts)
    if tok and tok[0] == "string":
        stream.next()
        return LicPrincipal(_unquote(tok[1]))
    if tok and tok[0] == "ident":
        stream.next()
        name = tok[1]
        return LicPrincipal(consts.get(name, name))
    raise KeyNoteError(f"bad licensee token {tok!r}")


# ---------------------------------------------------------------------------
# Condition expressions
# ---------------------------------------------------------------------------

class _CondNode:
    __slots__ = ()


@dataclass(frozen=True)
class _Comparison(_CondNode):
    op: str
    left: Tuple[str, str]   # (kind, value) with kind in ident/string/number
    right: Tuple[str, str]

    def eval(self, attrs: ActionAttributes) -> bool:
        lhs = _operand_value(self.left, attrs)
        rhs = _operand_value(self.right, attrs)
        lnum, rnum = _as_number(lhs), _as_number(rhs)
        if lnum is not None and rnum is not None:
            lhs, rhs = lnum, rnum
        else:
            lhs, rhs = str(lhs), str(rhs)
        if self.op == "==":
            return lhs == rhs
        if self.op == "!=":
            return lhs != rhs
        if self.op == "<":
            return lhs < rhs
        if self.op == ">":
            return lhs > rhs
        if self.op == "<=":
            return lhs <= rhs
        if self.op == ">=":
            return lhs >= rhs
        raise KeyNoteError(f"unknown comparison op {self.op!r}")


@dataclass(frozen=True)
class _Not(_CondNode):
    inner: _CondNode

    def eval(self, attrs: ActionAttributes) -> bool:
        return not self.inner.eval(attrs)


@dataclass(frozen=True)
class _BoolOp(_CondNode):
    op: str
    parts: Tuple[_CondNode, ...]

    def eval(self, attrs: ActionAttributes) -> bool:
        if self.op == "&&":
            return all(p.eval(attrs) for p in self.parts)
        return any(p.eval(attrs) for p in self.parts)


@dataclass(frozen=True)
class _Literal(_CondNode):
    value: bool

    def eval(self, attrs: ActionAttributes) -> bool:
        return self.value


def _operand_value(operand: Tuple[str, str], attrs: ActionAttributes):
    kind, value = operand
    if kind == "string":
        return _unquote(value)
    if kind == "number":
        return float(value)
    if kind == "ident":
        if value == "true":
            return "true"
        if value == "false":
            return "false"
        # Unknown attributes evaluate to the empty string, per RFC 2704.
        return attrs.get(value, "")
    raise KeyNoteError(f"bad operand {operand!r}")


def _as_number(value) -> Optional[float]:
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(str(value))
    except (TypeError, ValueError):
        return None


@dataclass(frozen=True)
class ConditionClause:
    """``expr -> "value"`` — a bare expr maps to the top compliance value."""

    expr: _CondNode
    value: Optional[str]  # None = assertion's maximum


def parse_conditions(text: str) -> List[ConditionClause]:
    """Parse the Conditions field into ordered clauses."""
    stream = _TokenStream(_tokenize(text))
    clauses: List[ConditionClause] = []
    while not stream.at_end():
        expr = _parse_cond_or(stream)
        value: Optional[str] = None
        if stream.accept("op", "->"):
            value = _unquote(stream.expect("string"))
        clauses.append(ConditionClause(expr, value))
        if not stream.accept("op", ";"):
            break
    if not stream.at_end():
        raise KeyNoteError(f"trailing tokens in conditions: {stream.peek()!r}")
    return clauses


def _parse_cond_or(stream: _TokenStream) -> _CondNode:
    parts = [_parse_cond_and(stream)]
    while stream.accept("op", "||"):
        parts.append(_parse_cond_and(stream))
    return parts[0] if len(parts) == 1 else _BoolOp("||", tuple(parts))


def _parse_cond_and(stream: _TokenStream) -> _CondNode:
    parts = [_parse_cond_not(stream)]
    while stream.accept("op", "&&"):
        parts.append(_parse_cond_not(stream))
    return parts[0] if len(parts) == 1 else _BoolOp("&&", tuple(parts))


def _parse_cond_not(stream: _TokenStream) -> _CondNode:
    if stream.accept("op", "!"):
        return _Not(_parse_cond_not(stream))
    if stream.accept("op", "("):
        inner = _parse_cond_or(stream)
        stream.expect("op", ")")
        return inner
    return _parse_comparison(stream)


def _parse_comparison(stream: _TokenStream) -> _CondNode:
    tok = stream.peek()
    if tok and tok[0] == "ident" and tok[1] in ("true", "false"):
        nxt = stream.tokens[stream.pos + 1] if stream.pos + 1 < len(stream.tokens) else None
        if nxt is None or nxt[1] in (";", "->", "&&", "||", ")"):
            stream.next()
            return _Literal(tok[1] == "true")
    left = stream.next()
    if left[0] not in ("ident", "string", "number"):
        raise KeyNoteError(f"bad comparison operand {left!r}")
    op = stream.expect("op")
    if op not in ("==", "!=", "<", ">", "<=", ">="):
        raise KeyNoteError(f"bad comparison operator {op!r}")
    right = stream.next()
    if right[0] not in ("ident", "string", "number"):
        raise KeyNoteError(f"bad comparison operand {right!r}")
    return _Comparison(op, left, right)


# ---------------------------------------------------------------------------
# Assertions
# ---------------------------------------------------------------------------

_FIELD_RE = re.compile(r"^([A-Za-z-]+):\s*(.*)$")


@dataclass
class Assertion:
    """One KeyNote assertion: policy (unsigned) or credential (signed)."""

    authorizer: str
    licensees_text: str
    conditions_text: str
    comment: str = ""
    local_constants: Dict[str, str] = field(default_factory=dict)
    signature: Optional[Tuple[int, int]] = None
    licensees: object = field(init=False, repr=False)
    conditions: List[ConditionClause] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.licensees = parse_licensees(self.licensees_text, self.local_constants)
        self.conditions = parse_conditions(self.conditions_text) if self.conditions_text.strip() else []

    @property
    def is_policy(self) -> bool:
        return self.authorizer == POLICY

    def signed_body(self) -> str:
        """Canonical text covered by a credential signature."""
        lines = ["KeyNote-Version: 2"]
        for name, value in sorted(self.local_constants.items()):
            lines.append(f'Local-Constants: {name} = "{value}"')
        lines.append(f"Authorizer: {self.authorizer}")
        lines.append(f"Licensees: {self.licensees_text}")
        lines.append(f"Conditions: {self.conditions_text}")
        return "\n".join(lines)

    def sign(self, keypair: KeyPair) -> "Assertion":
        """Sign as a credential.  The keypair must belong to the authorizer."""
        if keypair.principal() != self.authorizer:
            raise KeyNoteError(
                f"authorizer {self.authorizer!r} does not match signing key "
                f"{keypair.principal()!r}"
            )
        self.signature = keypair.sign(self.signed_body())
        return self

    def verify(self, principal_keys: Mapping[str, int]) -> bool:
        """Verify the credential signature (policies verify trivially)."""
        if self.is_policy:
            return True
        if self.signature is None:
            return False
        public = principal_keys.get(self.authorizer)
        if public is None:
            return False
        return verify_signature(public, self.signed_body(), self.signature)

    def to_text(self) -> str:
        body = self.signed_body()
        if self.comment:
            body += f"\nComment: {self.comment}"
        if self.signature is not None:
            body += f"\nSignature: sig-schnorr:{self.signature[0]:x}:{self.signature[1]:x}"
        return body


def parse_assertion(text: str) -> Assertion:
    """Parse the RFC-2704-style textual form produced by ``to_text``."""
    fields: Dict[str, str] = {}
    constants: Dict[str, str] = {}
    current: Optional[str] = None
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line.strip():
            continue
        if line[0].isspace() and current:
            fields[current] += " " + line.strip()
            continue
        match = _FIELD_RE.match(line)
        if not match:
            raise KeyNoteError(f"malformed assertion line {line!r}")
        name, value = match.group(1), match.group(2)
        if name == "Local-Constants":
            const = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*\"(.*)\"$", value)
            if not const:
                raise KeyNoteError(f"malformed Local-Constants {value!r}")
            constants[const.group(1)] = const.group(2)
            current = None
        else:
            fields[name] = value
            current = name
    if "Authorizer" not in fields or "Licensees" not in fields:
        raise KeyNoteError("assertion missing Authorizer or Licensees")
    signature: Optional[Tuple[int, int]] = None
    if "Signature" in fields:
        sig = re.match(r"^sig-schnorr:([0-9a-f]+):([0-9a-f]+)$", fields["Signature"])
        if not sig:
            raise KeyNoteError(f"malformed signature {fields['Signature']!r}")
        signature = (int(sig.group(1), 16), int(sig.group(2), 16))
    return Assertion(
        authorizer=fields["Authorizer"].strip().strip('"'),
        licensees_text=fields["Licensees"],
        conditions_text=fields.get("Conditions", ""),
        comment=fields.get("Comment", ""),
        local_constants=constants,
        signature=signature,
    )


# ---------------------------------------------------------------------------
# Compliance checker
# ---------------------------------------------------------------------------

class ComplianceValue:
    """Ordered compliance values; comparisons go through indices."""

    def __init__(self, values: Sequence[str] = DEFAULT_VALUES):
        if len(values) < 2:
            raise KeyNoteError("need at least two compliance values")
        self.values = tuple(values)
        self.index = {v: i for i, v in enumerate(values)}

    def rank(self, value: str) -> int:
        try:
            return self.index[value]
        except KeyError:
            raise KeyNoteError(f"unknown compliance value {value!r}")


class ComplianceChecker:
    """Evaluate a query against policies + credentials (RFC 2704 §5)."""

    def __init__(
        self,
        assertions: Iterable[Assertion],
        values: Sequence[str] = DEFAULT_VALUES,
        principal_keys: Optional[Mapping[str, int]] = None,
        strict_signatures: bool = True,
    ):
        self.values = ComplianceValue(values)
        self.principal_keys = dict(principal_keys or {})
        self.assertions: List[Assertion] = []
        for assertion in assertions:
            if strict_signatures and not assertion.verify(self.principal_keys):
                continue  # unverifiable credentials are simply ignored
            self.assertions.append(assertion)

    def _assertion_condition_rank(self, assertion: Assertion, attrs: ActionAttributes) -> int:
        """Highest-ranked clause value whose expression holds."""
        best = 0  # minimum value if nothing matches
        for clause in assertion.conditions:
            try:
                holds = clause.expr.eval(attrs)
            except KeyNoteError:
                holds = False
            if holds:
                rank = (
                    len(self.values.values) - 1
                    if clause.value is None
                    else self.values.rank(clause.value)
                )
                best = max(best, rank)
        if not assertion.conditions:
            best = len(self.values.values) - 1  # no conditions = unconditional
        return best

    def query(self, requesters: Iterable[str], attrs: ActionAttributes) -> str:
        """The compliance value POLICY assigns to this request."""
        top = len(self.values.values) - 1
        ratings: Dict[str, int] = {name: top for name in requesters}
        # Fixpoint over the delegation graph (handles any depth and cycles;
        # ranks only increase, so it terminates in <= |assertions| * |values|).
        changed = True
        while changed:
            changed = False
            for assertion in self.assertions:
                cond_rank = self._assertion_condition_rank(assertion, attrs)
                lic_rank = assertion.licensees.value(ratings, 0)
                rank = min(cond_rank, lic_rank)
                if rank > ratings.get(assertion.authorizer, 0):
                    ratings[assertion.authorizer] = rank
                    changed = True
        return self.values.values[ratings.get(POLICY, 0)]

    def authorized(self, requesters: Iterable[str], attrs: ActionAttributes, minimum: str = "permit") -> bool:
        return self.values.rank(self.query(requesters, attrs)) >= self.values.rank(minimum)
