"""User identities: everything Scenario 1 registers for a new ACE user."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.security.crypto import KeyPair


@dataclass
class UserIdentity:
    """A human user's enrollment material."""

    username: str
    fullname: str = ""
    password: str = ""
    fingerprint_template: Tuple[float, ...] = ()
    ibutton_serial: str = ""
    keypair: Optional[KeyPair] = None
