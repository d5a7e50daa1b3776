"""Printer daemon + task automation (Chapter 9 future work).

The paper names '"print this out to the nearest printer"' as the canonical
task-automation example.  :class:`PrinterDaemon` is a spooling device
daemon; :class:`TaskAutomationDaemon` resolves "nearest": it asks the AUD
where the user last identified, finds printers through the ASD, prefers
one in the user's room (falling back to any), and forwards the job.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, List, Optional

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.core.client import CallError, Service
from repro.core.daemon import Request, ServiceError
from repro.core.daemon import ACEDaemon
from repro.services.asd import asd_lookup
from repro.services.devices import DeviceDaemon


class PrinterDaemon(DeviceDaemon):
    """A print spooler fronting one printer."""

    service_type = "Printer"

    #: seconds per page (a 2000-era laser printer, ~12 ppm)
    SECONDS_PER_PAGE = 5.0

    def __init__(self, ctx, name, host, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.powered = True
        self.queue: deque = deque()
        self.printed: List[str] = []
        self._spooler_running = False

    def build_semantics(self, sem: CommandSemantics) -> None:
        super().build_semantics(sem)
        sem.define(
            "printDocument",
            ArgSpec("doc", ArgType.STRING),
            ArgSpec("pages", ArgType.INTEGER, required=False, default=1),
            ArgSpec("user", ArgType.STRING, required=False, default="unknown"),
        )
        sem.define("getQueue")

    def cmd_printDocument(self, request: Request) -> dict:
        cmd = request.command
        pages = cmd.int("pages", 1)
        if pages < 1:
            raise ServiceError("pages must be >= 1")
        job = (cmd.str("doc"), pages, cmd.str("user", "unknown"))
        self.queue.append(job)
        if not self._spooler_running:
            self._spooler_running = True
            self._spawn(self._spool(), "spooler")
        return {"queued": len(self.queue), "doc": job[0]}

    def _spool(self) -> Generator:
        while self.running and self.queue:
            doc, pages, user = self.queue.popleft()
            yield self.ctx.sim.timeout(pages * self.SECONDS_PER_PAGE)
            self.printed.append(doc)
            self.ctx.trace.emit(self.ctx.sim.now, self.name, "printed",
                                doc=doc, pages=pages, user=user)
        self._spooler_running = False

    def cmd_getQueue(self, request: Request) -> dict:
        return {"queued": len(self.queue), "printed": len(self.printed)}


class TaskAutomationDaemon(ACEDaemon):
    """Turns user-level intents into service command chains (§9)."""

    service_type = "TaskAutomation"

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define(
            "printNearest",
            ArgSpec("user", ArgType.STRING),
            ArgSpec("doc", ArgType.STRING),
            ArgSpec("pages", ArgType.INTEGER, required=False, default=1),
            description='"print this out to the nearest printer"',
        )

    def _user_location(self, username: str) -> Generator:
        client = self._service_client()
        try:
            reply = yield from client.call(
                Service(name="aud"), ACECmdLine("getUser", username=username)
            )
        except CallError:
            return None
        location = reply.str("location", "unknown")
        return None if location == "unknown" else location

    def _pick_printer(self, room: Optional[str]) -> Generator:
        client = self._service_client()
        printers = yield from asd_lookup(client, self.ctx.asd_address, cls="Printer")
        if not printers:
            raise ServiceError("no printers registered in this ACE")
        if room is not None:
            local = [p for p in printers if p.room == room]
            if local:
                return local[0], "same-room"
        return printers[0], "fallback"

    def cmd_printNearest(self, request: Request) -> Generator:
        cmd = request.command
        username = cmd.str("user")
        room = yield from self._user_location(username)
        printer, why = yield from self._pick_printer(room)
        client = self._service_client()
        try:
            reply = yield from client.call(
                printer.address,
                ACECmdLine("printDocument", doc=cmd.str("doc"),
                           pages=cmd.int("pages", 1), user=username),
            )
        except CallError as exc:
            raise ServiceError(f"printer {printer.name!r} unreachable: {exc}")
        self.ctx.trace.emit(
            self.ctx.sim.now, self.name, "task-automated",
            task="printNearest", printer=printer.name, reason=why,
            user_room=room or "unknown",
        )
        return {"printer": printer.name, "room": printer.room,
                "selection": why, "queued": reply.int("queued")}
