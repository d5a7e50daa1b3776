"""Adaptive camera (§2.5's worked example + §9 "adaptive camera systems").

The paper's notification walk-through: "whenever a new person identifies
him/herself at the door, … the camera point[s] towards the door in order
to visualize the new user walking into the room."  This daemon is that
example verbatim: a PTZ camera that subscribes to the identification
devices in its room and slews to the door on a positive identification.
"""

from __future__ import annotations

from typing import Generator, Tuple

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.core.daemon import Request
from repro.core.notifications import CALLBACK_ARGS, ClassWatch, notification_event
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
        self._devices = ClassWatch(
            self, ID_DEVICE_CLASSES, {"identified": "onUserIdentified"}, room=self.room)

    def build_semantics(self, sem: CommandSemantics) -> None:
        super().build_semantics(sem)
        sem.define(
            "onUserIdentified", *CALLBACK_ARGS,
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
        if self.room:
            # the ID devices in *our* room only
            self._spawn(self._devices.scan(), "subscribe")

    def cmd_setDoorPosition(self, request: Request) -> dict:
        cmd = request.command
        self.door_position = (cmd.float("x"), cmd.float("y"), cmd.float("z", 1.6))
        return {"x": self.door_position[0], "y": self.door_position[1],
                "z": self.door_position[2]}

    def cmd_onUserIdentified(self, request: Request) -> Generator:
        event = notification_event(request)
        username = (event.str("username", "") if event is not None else "") or "unknown"
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
        self.greeted.append((self.ctx.sim.now, username))
        self.ctx.trace.emit(self.ctx.sim.now, self.name, "camera-greets", user=username)
        return {"user": username}
