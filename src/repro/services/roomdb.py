"""Room Database service (§4.11).

Keeps the spatial model of the ACE: buildings, rooms, room dimensions, and
which services sit where (with 3D positions, so a PTZ camera can "establish
a 3D coordinate system for referencing the room space").  Daemons register
their location here as step 2 of the startup sequence (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.lang import ArgSpec, ArgType, CommandSemantics
from repro.lang.wire import join_wire, split_wire
from repro.core.daemon import Request, ServiceError
from repro.services.base import Checkpointable, DatabaseDaemon


@dataclass
class RoomInfo:
    """One room: geometry plus resident services."""

    name: str
    building: str = ""
    #: width, depth, height in metres (0,0,0 = unknown)
    dims: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    #: service name -> (host, port, x, y, z)
    services: Dict[str, Tuple[str, int, float, float, float]] = field(default_factory=dict)


class RoomDatabaseDaemon(Checkpointable, DatabaseDaemon):
    """The spatial model of the ACE (§4.11)."""

    service_type = "RoomDatabase"

    def __init__(self, ctx, name, host, **kwargs):
        kwargs.setdefault("authorize_commands", False)  # bootstrap service
        super().__init__(ctx, name, host, **kwargs)
        self.rooms: Dict[str, RoomInfo] = {}

    # ------------------------------------------------------------------
    # Recovery-plane checkpointing: one ``room`` line per room (geometry)
    # followed by one ``svc`` line per placed service.
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> Tuple[str, ...]:
        lines = []
        for name in sorted(self.rooms):
            room = self.rooms[name]
            w, d, h = room.dims
            lines.append(join_wire(("room", name, room.building, w, d, h)))
        for name in sorted(self.rooms):
            room = self.rooms[name]
            for svc in sorted(room.services):
                host, port, x, y, z = room.services[svc]
                lines.append(join_wire(("svc", name, svc, host, port, x, y, z)))
        return tuple(lines)

    def restore_state(self, lines: Tuple[str, ...]) -> None:
        self.rooms.clear()
        for line in lines:
            fields = split_wire(line)
            if fields[0] == "room" and len(fields) == 6:
                _, name, building, w, d, h = fields
                self.rooms[name] = RoomInfo(
                    name, building=building,
                    dims=(float(w), float(d), float(h)),
                )
            elif fields[0] == "svc" and len(fields) == 8:
                _, name, svc, host, port, x, y, z = fields
                room = self.rooms.setdefault(name, RoomInfo(name))
                room.services[svc] = (
                    host, int(port), float(x), float(y), float(z),
                )

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define(
            "registerRoom",
            ArgSpec("room", ArgType.STRING),
            ArgSpec("building", ArgType.STRING, required=False, default=""),
            ArgSpec("dims", ArgType.VECTOR, required=False),
            description="declare a room and its physical dimensions",
        )
        sem.define(
            "registerService",
            ArgSpec("service", ArgType.STRING),
            ArgSpec("room", ArgType.STRING),
            ArgSpec("host", ArgType.STRING),
            ArgSpec("port", ArgType.INTEGER),
            ArgSpec("position", ArgType.VECTOR, required=False),
            description="place a service in a room (Fig. 9 step 2)",
        )
        sem.define("lookupRoom", ArgSpec("room", ArgType.STRING))
        sem.define("whereIs", ArgSpec("service", ArgType.STRING))
        sem.define("listRooms")
        sem.define("roomDims", ArgSpec("room", ArgType.STRING))

    # ------------------------------------------------------------------
    def _room(self, name: str, create: bool = False) -> RoomInfo:
        if name not in self.rooms:
            if not create:
                raise ServiceError(f"unknown room {name!r}")
            self.rooms[name] = RoomInfo(name)
        return self.rooms[name]

    def cmd_registerRoom(self, request: Request) -> dict:
        cmd = request.command
        room = self._room(cmd.str("room"), create=True)
        room.building = cmd.str("building", room.building or "")
        dims = cmd.get("dims")
        if dims is not None:
            if len(dims) != 3:
                raise ServiceError("dims must be a 3-vector {w,d,h}")
            room.dims = tuple(float(v) for v in dims)
        return {"room": room.name}

    def cmd_registerService(self, request: Request) -> dict:
        cmd = request.command
        room = self._room(cmd.str("room"), create=True)
        position = cmd.get("position", (0.0, 0.0, 0.0))
        if len(position) != 3:
            raise ServiceError("position must be a 3-vector {x,y,z}")
        # A service lives in exactly one room; relocate if re-registered.
        self._drop_service(cmd.str("service"))
        room.services[cmd.str("service")] = (
            cmd.str("host"),
            cmd.int("port"),
            float(position[0]),
            float(position[1]),
            float(position[2]),
        )
        return {"room": room.name}

    def _drop_service(self, service: str) -> None:
        for room in self.rooms.values():
            if service in room.services:
                del room.services[service]
                return

    def cmd_lookupRoom(self, request: Request) -> dict:
        room = self._room(request.command.str("room"))
        result: dict = {"room": room.name, "count": len(room.services)}
        if room.services:
            result["services"] = tuple(
                f"{name}|{host}|{port}|{x}|{y}|{z}"
                for name, (host, port, x, y, z) in sorted(room.services.items())
            )
        return result

    def cmd_whereIs(self, request: Request) -> dict:
        service = request.command.str("service")
        for room in self.rooms.values():
            if service in room.services:
                host, port, x, y, z = room.services[service]
                return {"room": room.name, "host": host, "port": port, "position": (x, y, z)}
        raise ServiceError(f"service {service!r} not placed in any room")

    def cmd_listRooms(self, request: Request) -> dict:
        result: dict = {"count": len(self.rooms)}
        if self.rooms:
            result["rooms"] = tuple(sorted(self.rooms))
        return result

    def cmd_roomDims(self, request: Request) -> dict:
        room = self._room(request.command.str("room"))
        return {"dims": room.dims, "building": room.building or "unknown"}
