"""Personnel tracker — a *non-human ACE user* (§1.1).

The paper's taxonomy: "Non-human users are high-level applications that
utilize ACE services on their own to provide automation within an ACE.
Examples of this would be video monitoring systems, personnel tracking
systems".  This daemon is that example: it subscribes to every
identification device's ``identified`` notifications (like the ID
Monitor), but instead of opening workspaces it accumulates movement
histories and answers location/occupancy queries — the substrate for the
§9 wishlist items (personnel tracking, adaptive camera systems).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Tuple

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics, parse_command
from repro.net import Address, ConnectionClosed, ConnectionRefused
from repro.core.client import CallError
from repro.core.daemon import ACEDaemon, Request, ServiceError
from repro.services.asd import asd_lookup
from repro.services.idmon import ID_DEVICE_CLASSES


@dataclass
class Sighting:
    time: float
    location: str
    device: str


class PersonnelTrackerDaemon(ACEDaemon):
    """Movement histories and occupancy from identification events."""

    service_type = "PersonnelTracker"

    def __init__(self, ctx, name, host, *, history_limit: int = 1000, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.history_limit = history_limit
        self.histories: Dict[str, List[Sighting]] = {}
        self._subscribed: set = set()

    def build_semantics(self, sem: CommandSemantics) -> None:
        notify_args = (
            ArgSpec("source", ArgType.STRING, required=False),
            ArgSpec("trigger", ArgType.STRING, required=False),
            ArgSpec("principal", ArgType.STRING, required=False),
            ArgSpec("args", ArgType.STRING, required=False),
        )
        sem.define("onIdentified", *notify_args)
        sem.define("onServiceRegistered", *notify_args)
        sem.define("whereIsUser", ArgSpec("username", ArgType.STRING))
        sem.define(
            "trackHistory",
            ArgSpec("username", ArgType.STRING),
            ArgSpec("limit", ArgType.INTEGER, required=False, default=10),
        )
        sem.define("roomOccupancy", ArgSpec("room", ArgType.STRING))

    def on_started(self) -> None:
        self._spawn(self._watch_registrations(), "watch-asd")
        self._spawn(self._initial_subscribe(), "subscribe")

    # -- subscription plumbing (same pattern as the ID Monitor) -----------
    def _watch_registrations(self) -> Generator:
        if self.ctx.asd_address is None:
            return
        client = self._service_client()
        try:
            yield from client.call(
                self.ctx.asd_address,
                ACECmdLine("addNotification", cmd="register", listener=self.name,
                           host=self.host.name, port=self.port,
                           callback="onServiceRegistered"),
            )
        except (CallError, ConnectionClosed, ConnectionRefused):
            pass

    def _initial_subscribe(self) -> Generator:
        client = self._service_client()
        for cls in ID_DEVICE_CLASSES:
            try:
                devices = yield from asd_lookup(client, self.ctx.asd_address, cls=cls)
            except (CallError, ConnectionClosed, ConnectionRefused):
                continue
            for device in devices:
                yield from self._subscribe_device(device.name, device.address)

    def _subscribe_device(self, name: str, address: Address) -> Generator:
        if name in self._subscribed:
            return
        client = self._service_client()
        try:
            yield from client.call(
                address,
                ACECmdLine("addNotification", cmd="identified", listener=self.name,
                           host=self.host.name, port=self.port,
                           callback="onIdentified"),
            )
            self._subscribed.add(name)
        except (CallError, ConnectionClosed, ConnectionRefused):
            pass

    def cmd_onServiceRegistered(self, request: Request) -> Generator:
        text = request.command.get("args")
        if not text:
            return {}
        try:
            event = parse_command(text)
        except Exception:
            return {}
        if not any(c in event.str("cls", "").split("/") for c in ID_DEVICE_CLASSES):
            return {}
        yield from self._subscribe_device(
            event.str("name"), Address(event.str("host"), event.int("port"))
        )
        return {}

    # -- tracking ----------------------------------------------------------
    def cmd_onIdentified(self, request: Request) -> dict:
        text = request.command.get("args")
        if not text:
            return {}
        try:
            event = parse_command(text)
        except Exception:
            return {}
        username = event.str("username")
        sighting = Sighting(
            time=self.ctx.sim.now,
            location=event.str("location"),
            device=str(request.command.get("source", "?")),
        )
        history = self.histories.setdefault(username, [])
        history.append(sighting)
        if len(history) > self.history_limit:
            del history[: self.history_limit // 10]
        return {"username": username}

    def cmd_whereIsUser(self, request: Request) -> dict:
        username = request.command.str("username")
        history = self.histories.get(username)
        if not history:
            raise ServiceError(f"never seen user {username!r}")
        last = history[-1]
        return {"username": username, "location": last.location,
                "seen_at": round(last.time, 6), "device": last.device}

    def cmd_trackHistory(self, request: Request) -> dict:
        cmd = request.command
        history = self.histories.get(cmd.str("username"), [])
        limit = cmd.int("limit", 10)
        tail = history[-limit:] if limit > 0 else []
        result: dict = {"count": len(history)}
        if tail:
            result["sightings"] = tuple(
                f"{s.time:.3f}|{s.location}|{s.device}" for s in tail
            )
        return result

    def cmd_roomOccupancy(self, request: Request) -> dict:
        """Who was last seen in this room (and hasn't been seen elsewhere)."""
        room = request.command.str("room")
        present = sorted(
            user for user, history in self.histories.items()
            if history and history[-1].location == room
        )
        result: dict = {"room": room, "count": len(present)}
        if present:
            result["users"] = tuple(present)
        return result
