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

from repro.lang import ArgSpec, ArgType, CommandSemantics
from repro.core.daemon import ACEDaemon, Request, ServiceError
from repro.core.notifications import CALLBACK_ARGS, ClassWatch, notification_event
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
        self._devices = ClassWatch(self, ID_DEVICE_CLASSES, {"identified": "onIdentified"})

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define("onIdentified", *CALLBACK_ARGS)
        sem.define("onServiceRegistered", *CALLBACK_ARGS)
        sem.define("whereIsUser", ArgSpec("username", ArgType.STRING))
        sem.define(
            "trackHistory",
            ArgSpec("username", ArgType.STRING),
            ArgSpec("limit", ArgType.INTEGER, required=False, default=10),
        )
        sem.define("roomOccupancy", ArgSpec("room", ArgType.STRING))

    def on_started(self) -> None:
        self._spawn(self._devices.watch_directory(), "watch-asd")
        self._spawn(self._devices.scan(), "subscribe")

    def cmd_onServiceRegistered(self, request: Request) -> Generator:
        return self._devices.on_registered(request)

    # -- tracking ----------------------------------------------------------
    def cmd_onIdentified(self, request: Request) -> dict:
        event = notification_event(request)
        if event is None:
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
