"""Authorization Database service (§4.10, Fig. 10).

Stores KeyNote credential assertions per principal.  Services consult it
(step 2 of Fig. 10) before executing commands; the returned credentials are
"passed onto KeyNote, which is used to determine if a proper assertion or
chain of assertions are present".

Credentials are multi-line texts, but ACE strings cannot carry newlines, so
they cross the wire with ``\\n`` escapes (:func:`encode_credential` /
:func:`decode_credential`).
"""

from __future__ import annotations

from typing import Dict, List

from repro.lang import ArgSpec, ArgType, CommandSemantics
from repro.security.keynote import Assertion, KeyNoteError, parse_assertion
from repro.core.daemon import Request, ServiceError
from repro.services.base import DatabaseDaemon


def encode_credential(text: str) -> str:
    """Credential text → single-line wire form."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def decode_credential(text: str) -> str:
    """Wire form → credential text."""
    out: List[str] = []
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append("\n" if nxt == "n" else nxt)
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


class AuthorizationDatabaseDaemon(DatabaseDaemon):
    """Stores per-principal KeyNote credentials (Fig. 10 step 2–4)."""

    service_type = "AuthorizationDatabase"

    def __init__(self, ctx, name, host, **kwargs):
        # Never authorize against itself: Fig. 10's lookup would recurse.
        kwargs["authorize_commands"] = False
        super().__init__(ctx, name, host, **kwargs)
        self._credentials: Dict[str, List[str]] = {}

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define(
            "storeCredential",
            ArgSpec("principal", ArgType.STRING),
            ArgSpec("credential", ArgType.STRING),
            description="store an encoded KeyNote assertion for a principal",
        )
        sem.define("getCredentials", ArgSpec("principal", ArgType.STRING))
        sem.define("revokeCredentials", ArgSpec("principal", ArgType.STRING))
        sem.define("listPrincipals")

    # -- plain-Python API used by the environment builder -------------------
    def install(self, principal: str, assertion: Assertion) -> None:
        """Directly install a credential (administrative path)."""
        self._credentials.setdefault(principal, []).append(assertion.to_text())

    # -- handlers ---------------------------------------------------------
    def cmd_storeCredential(self, request: Request) -> dict:
        cmd = request.command
        text = decode_credential(cmd.str("credential"))
        try:
            parse_assertion(text)  # reject garbage at the door
        except KeyNoteError as exc:
            raise ServiceError(f"malformed credential: {exc}")
        self._credentials.setdefault(cmd.str("principal"), []).append(text)
        return {"stored": 1}

    def cmd_getCredentials(self, request: Request) -> dict:
        principal = request.command.str("principal")
        texts = self._credentials.get(principal, [])
        result: dict = {"count": len(texts)}
        if texts:
            result["credentials"] = tuple(encode_credential(t) for t in texts)
        return result

    def cmd_revokeCredentials(self, request: Request) -> dict:
        removed = len(self._credentials.pop(request.command.str("principal"), []))
        return {"revoked": removed}

    def cmd_listPrincipals(self, request: Request) -> dict:
        result: dict = {"count": len(self._credentials)}
        if self._credentials:
            result["principals"] = tuple(sorted(self._credentials))
        return result
