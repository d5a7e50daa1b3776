"""Occupancy-driven lighting (§9: "automatic … lighting control systems").

Two pieces:

* :class:`LightDaemon` — a trivial dimmable light device.
* :class:`LightingControllerDaemon` — the automation: it watches every
  identification device (same notification plumbing as the ID Monitor),
  turns the lights of a room on when someone identifies there, and runs a
  sweep that turns lights off in rooms whose last sighting is older than
  the idle timeout.  Occupancy state is the same information the tracker
  keeps; here it drives actuators.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.core.client import CallError
from repro.core.daemon import ACEDaemon, Request, ServiceError
from repro.core.notifications import CALLBACK_ARGS, ClassWatch, notification_event
from repro.services.asd import asd_lookup
from repro.services.devices import DeviceDaemon
from repro.services.idmon import ID_DEVICE_CLASSES


class LightDaemon(DeviceDaemon):
    """A dimmable room light."""

    service_type = "Light"

    def __init__(self, ctx, name, host, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.level = 0  # 0..100

    def build_semantics(self, sem: CommandSemantics) -> None:
        super().build_semantics(sem)
        sem.define("setLevel", ArgSpec("level", ArgType.INTEGER))

    def cmd_setLevel(self, request: Request) -> dict:
        level = request.command.int("level")
        if not 0 <= level <= 100:
            raise ServiceError("level must be 0..100")
        self.level = level
        self.powered = level > 0
        return {"level": level}

    def device_state(self) -> dict:
        state = super().device_state()
        state["level"] = self.level
        return state


class LightingControllerDaemon(ACEDaemon):
    """Lights follow people."""

    service_type = "LightingController"

    def __init__(self, ctx, name, host, *, idle_timeout: float = 300.0,
                 on_level: int = 80, sweep_interval: float = 30.0, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.idle_timeout = idle_timeout
        self.on_level = on_level
        self.sweep_interval = sweep_interval
        #: room -> time of last identification there
        self.last_activity: Dict[str, float] = {}
        self._devices = ClassWatch(self, ID_DEVICE_CLASSES, {"identified": "onIdentified"})

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define("onIdentified", *CALLBACK_ARGS)
        sem.define("onServiceRegistered", *CALLBACK_ARGS)
        sem.define("getRoomState", ArgSpec("room", ArgType.STRING))

    def on_started(self) -> None:
        self._spawn(self._devices.watch_directory(), "watch-asd")
        self._spawn(self._devices.scan(), "subscribe")
        self._spawn(self._sweep(), "idle-sweep")

    def cmd_onServiceRegistered(self, request: Request) -> Generator:
        return self._devices.on_registered(request)

    # -- the automation -------------------------------------------------------
    def _room_lights(self, room: str) -> Generator:
        try:
            lights = yield from asd_lookup(self.client, self.ctx.asd_address,
                                           cls="Light", room=room)
        except CallError:
            return []
        return lights

    def _set_room_level(self, room: str, level: int) -> Generator:
        lights = yield from self._room_lights(room)
        changed = 0
        for light in lights:
            try:
                yield from self.client.call(
                    light.address, ACECmdLine("setLevel", level=level))
                changed += 1
            except CallError:
                continue
        if changed:
            self.ctx.trace.emit(self.ctx.sim.now, self.name, "lights-set",
                                room=room, level=level, lights=changed)
        return changed

    def cmd_onIdentified(self, request: Request) -> Generator:
        event = notification_event(request)
        if event is None:
            return {}
        room = event.str("location")
        self.last_activity[room] = self.ctx.sim.now
        yield from self._set_room_level(room, self.on_level)
        return {"room": room}

    def _sweep(self) -> Generator:
        while self.running:
            yield self.ctx.sim.timeout(self.sweep_interval)
            now = self.ctx.sim.now
            for room, last in list(self.last_activity.items()):
                if now - last >= self.idle_timeout:
                    yield from self._set_room_level(room, 0)
                    del self.last_activity[room]

    def cmd_getRoomState(self, request: Request) -> dict:
        room = request.command.str("room")
        last = self.last_activity.get(room)
        return {
            "room": room,
            "occupied": 1 if last is not None else 0,
            "idle_s": round(self.ctx.sim.now - last, 3) if last is not None else -1.0,
        }
