"""Adaptive camera (§2.5's worked example + §9 "adaptive camera systems").

The paper's notification walk-through: "whenever a new person identifies
him/herself at the door, … the camera point[s] towards the door in order
to visualize the new user walking into the room."  This daemon is that
example verbatim: a PTZ camera that subscribes to the identification
devices in its room and slews to the door on a positive identification.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics, parse_command
from repro.net import ConnectionClosed, ConnectionRefused
from repro.core.client import CallError
from repro.core.daemon import Request
from repro.services.asd import asd_lookup
from repro.services.devices import VCC4CameraDaemon
from repro.services.idmon import ID_DEVICE_CLASSES


class AdaptiveCameraDaemon(VCC4CameraDaemon):
    """A VCC4 that watches the room's ID devices and greets arrivals."""

    service_type = "AdaptiveCamera"

    def __init__(self, ctx, name, host, *,
                 door_position: Tuple[float, float, float] = (0.5, 0.5, 1.6),
                 **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.door_position = door_position
        self.greeted: list = []
        self._subscribed: set = set()

    def build_semantics(self, sem: CommandSemantics) -> None:
        super().build_semantics(sem)
        sem.define(
            "onUserIdentified",
            ArgSpec("source", ArgType.STRING, required=False),
            ArgSpec("trigger", ArgType.STRING, required=False),
            ArgSpec("principal", ArgType.STRING, required=False),
            ArgSpec("args", ArgType.STRING, required=False),
            description="someone identified at the door: look at them (§2.5)",
        )
        sem.define(
            "setDoorPosition",
            ArgSpec("x", ArgType.NUMBER),
            ArgSpec("y", ArgType.NUMBER),
            ArgSpec("z", ArgType.NUMBER, required=False, default=1.6),
        )

    def on_started(self) -> None:
        super().on_started()
        self._spawn(self._subscribe_room_devices(), "subscribe")

    def _subscribe_room_devices(self) -> Generator:
        """Find the ID devices in *our* room and watch their 'identified'."""
        if self.ctx.asd_address is None or not self.room:
            return
        client = self._service_client()
        for cls in ID_DEVICE_CLASSES:
            try:
                devices = yield from asd_lookup(client, self.ctx.asd_address,
                                                cls=cls, room=self.room)
            except (CallError, ConnectionClosed, ConnectionRefused):
                continue
            for device in devices:
                if device.name in self._subscribed:
                    continue
                try:
                    yield from client.call(
                        device.address,
                        ACECmdLine("addNotification", cmd="identified",
                                   listener=self.name, host=self.host.name,
                                   port=self.port, callback="onUserIdentified"),
                    )
                    self._subscribed.add(device.name)
                except (CallError, ConnectionClosed, ConnectionRefused):
                    continue

    def cmd_setDoorPosition(self, request: Request) -> dict:
        cmd = request.command
        self.door_position = (cmd.float("x"), cmd.float("y"), cmd.float("z", 1.6))
        return {"x": self.door_position[0], "y": self.door_position[1],
                "z": self.door_position[2]}

    def cmd_onUserIdentified(self, request: Request) -> Generator:
        text = request.command.get("args")
        username: Optional[str] = None
        if text:
            try:
                username = parse_command(text).str("username")
            except Exception:
                username = None
        if not self.powered:
            # The paper's camera is assumed on; a powered-off adaptive
            # camera wakes itself to do its job.
            self.powered = True
        aim = self.semantics.validate(ACECmdLine(
            "setPosition", x=self.door_position[0], y=self.door_position[1],
            z=self.door_position[2],
        ))
        yield from self.cmd_setPosition(
            Request(command=aim, principal=self.name, received_at=self.ctx.sim.now)
        )
        self.greeted.append((self.ctx.sim.now, username or "unknown"))
        self.ctx.trace.emit(self.ctx.sim.now, self.name, "camera-greets",
                            user=username or "unknown")
        return {"user": username or "unknown"}
