"""iButton Reader service (§4.9).

The Dallas Semiconductor iButton is "a simple solid-state memory device
that stores a unique serial number"; touching it to a reader identifies
its owner.  The daemon resolves serials through the AUD
(``findByIButton``) and emits the same ``identified``/``identifyFailed``
event commands as the FIU, so the ID Monitor treats both modalities
uniformly.
"""

from __future__ import annotations

from typing import Generator

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.core.client import CallError, Service
from repro.core.daemon import Request, ServiceError
from repro.services.devices import DeviceDaemon


class IButtonReaderDaemon(DeviceDaemon):
    """Reads iButton serials and identifies their owners (§4.9)."""

    service_type = "IButtonReader"

    def __init__(self, ctx, name, host, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.powered = True  # readers are passive; no power command needed
        self.reads = 0
        self.matches = 0

    def build_semantics(self, sem: CommandSemantics) -> None:
        super().build_semantics(sem)
        sem.define(
            "read",
            ArgSpec("serial", ArgType.STRING),
            description="an iButton touched to the reader (driver-injected)",
        )
        sem.define(
            "identified",
            ArgSpec("username", ArgType.STRING),
            ArgSpec("location", ArgType.STRING),
            ArgSpec("distance", ArgType.NUMBER, required=False, default=0.0),
        )
        sem.define(
            "identifyFailed",
            ArgSpec("location", ArgType.STRING),
            ArgSpec("distance", ArgType.NUMBER, required=False, default=0.0),
        )

    def _find_user(self, serial: str) -> Generator:
        """The serial's owner, or None when the AUD knows no such serial.
        An AUD that does not answer raises: that is no failed identification."""
        try:
            reply = yield from self.client.call(
                Service(name="aud"), ACECmdLine("findByIButton", serial=serial)
            )
        except CallError as exc:
            if exc.reply is None:
                raise
            return None
        return reply.str("username")

    def cmd_read(self, request: Request) -> Generator:
        serial = request.command.str("serial")
        self.reads += 1
        username = yield from self._find_user(serial)
        location = self.room or self.host.name
        if username is not None:
            self.matches += 1
            yield from self.self_execute(
                ACECmdLine("identified", username=username, location=location)
            )
            return {"matched": 1, "username": username}
        yield from self.self_execute(ACECmdLine("identifyFailed", location=location))
        return {"matched": 0}

    def cmd_identified(self, request: Request) -> dict:
        # The listeners (ID Monitor, tracker, ...) do the real work; this
        # executing successfully is what fans out their notifications.
        return {"username": request.command.str("username")}

    def cmd_identifyFailed(self, request: Request) -> dict:
        return {}
