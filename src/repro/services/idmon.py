"""ID Monitor service (§4.6).

Receives identification notifications from every identification device
(FIU, iButton readers), updates the user's location in the AUD, and brings
workspaces up at the access point (Scenarios 2–3).  Failed identifications
are reported to the Network Logger (the paper's FBI joke lives here as a
trace event).
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.core.client import CallError, Service
from repro.core.daemon import ACEDaemon, Request
from repro.core.notifications import CALLBACK_ARGS, ClassWatch, notification_event
from repro.services.asd import asd_lookup

#: identification-capable device classes the monitor subscribes to
ID_DEVICE_CLASSES = ("FIU", "IButtonReader")


class IDMonitorDaemon(ACEDaemon):
    """Routes identification events to AUD updates and workspaces (§4.6)."""

    service_type = "IDMonitor"

    def __init__(self, ctx, name, host, *, auto_open_workspace: bool = True,
                 rescan_interval: float = 10.0, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.auto_open_workspace = auto_open_workspace
        self.rescan_interval = rescan_interval
        self._devices = ClassWatch(self, ID_DEVICE_CLASSES, {
            "identified": "onIdentified", "identifyFailed": "onIdentifyFailed"})
        #: username -> most recent identification location
        self.last_seen: Dict[str, str] = {}
        self.identifications = 0
        self.failures = 0

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define("onIdentified", *CALLBACK_ARGS)
        sem.define("onIdentifyFailed", *CALLBACK_ARGS)
        sem.define("onServiceRegistered", *CALLBACK_ARGS,
                   description="ASD registration events (Fig. 9 step 4)")
        sem.define("getLastSeen", ArgSpec("username", ArgType.STRING))
        sem.define(
            "selectorShown",
            ArgSpec("username", ArgType.STRING),
            ArgSpec("workspaces", ArgType.VECTOR),
            description="a workspace selector popped up (Scenario 4)",
        )

    def on_started(self) -> None:
        self._spawn(self._devices.watch_directory(), "watch-asd")
        self._spawn(self._subscribe_loop(), "subscribe")

    def cmd_onServiceRegistered(self, request: Request) -> Generator:
        return self._devices.on_registered(request)

    # ------------------------------------------------------------------
    def _subscribe_loop(self) -> Generator:
        """Rescan, so a device whose registration event we missed (or that
        refused us the first time) is picked up too."""
        while self.running:
            try:
                yield from self._devices.scan()
            except Exception:
                pass
            yield self.ctx.sim.timeout(self.rescan_interval)

    # ------------------------------------------------------------------
    def cmd_onIdentified(self, request: Request) -> Generator:
        event = notification_event(request)
        if event is None:
            return {}
        username = event.str("username")
        location = event.str("location")
        self.identifications += 1
        self.last_seen[username] = location
        self.ctx.trace.emit(
            self.ctx.sim.now, self.name, "user-identified",
            user=username, location=location, device=request.command.get("source", "?"),
        )
        client = self._service_client()
        # Scenario 2: update the user's current location in the AUD.
        try:
            yield from client.call(
                Service(name="aud"),
                ACECmdLine("setLocation", username=username, location=location),
            )
        except CallError:
            pass
        # Scenario 3/4: bring up the workspace, or a selector for several.
        if self.auto_open_workspace:
            yield from self._open_workspace(username, request)
        return {"username": username}

    def _open_workspace(self, username: str, request: Request) -> Generator:
        client = self._service_client()
        try:
            wsses = yield from asd_lookup(client, self.ctx.asd_address, cls="WorkspaceServer")
        except CallError:
            return
        if not wsses:
            return
        wss_addr = wsses[0].address
        # The access point is the identification device's host.
        display = yield from self._device_host(request)
        if display is None:
            return
        try:
            listing = yield from client.call(
                wss_addr, ACECmdLine("listWorkspaces", user=username)
            )
        except CallError:
            return
        count = listing.int("count", 0)
        if count == 0:
            return
        if count > 1:
            # Scenario 4: a selector GUI pops up; whoever watches
            # "selectorShown" drives the actual choice.
            yield from self.self_execute(
                ACECmdLine("selectorShown", username=username,
                           workspaces=listing["workspaces"])
            )
            return
        try:
            yield from client.call(
                wss_addr,
                ACECmdLine("openWorkspace", user=username, display=display),
            )
        except CallError:
            pass

    def _device_host(self, request: Request) -> Generator:
        source = request.command.get("source")
        if not source:
            return None
        client = self._service_client()
        try:
            devices = yield from asd_lookup(client, self.ctx.asd_address, name=source)
        except CallError:
            return None
        return devices[0].host if devices else None

    def cmd_onIdentifyFailed(self, request: Request) -> Generator:
        self.failures += 1
        self.ctx.trace.emit(self.ctx.sim.now, self.name, "identify-failed")
        if self.ctx.netlogger_address is not None:
            client = self._service_client()
            try:
                yield from client.call(
                    self.ctx.netlogger_address,
                    ACECmdLine("logEvent", source=self.name, event="invalid_identification",
                               detail=str(request.command.get("source", "?"))),
                )
            except CallError:
                pass
        return {}

    def cmd_getLastSeen(self, request: Request) -> dict:
        username = request.command.str("username")
        return {"username": username, "location": self.last_seen.get(username, "unknown")}

    def cmd_selectorShown(self, request: Request) -> dict:
        return {"username": request.command.str("username")}
