"""Device-control daemons (the Device subtree of Fig. 6).

``DeviceDaemon`` is the common base; below it sit the PTZ cameras (with
the Canon VCC3/VCC4 model variants the figure names) and the projector
(Epson 7350).  Device daemons are spatially aware: they learn their room's
dimensions from the Room Database so ``setPosition`` can validate 3D
coordinates ("it needs to know where it is located ... so that it may
establish a 3D coordinate system", §4.11).
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.core.client import CallError
from repro.core.daemon import ACEDaemon, Request, ServiceError


class DeviceDaemon(ACEDaemon):
    """A daemon fronting one physical device."""

    service_type = "Device"

    def __init__(self, ctx, name, host, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.powered = False
        self.room_dims: Optional[Tuple[float, float, float]] = None

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define("power", ArgSpec("state", ArgType.WORD), description="on|off")
        sem.define("getState")

    def fetch_room_dims(self) -> Generator:
        """Ask the RoomDB for our room's geometry (spatial awareness)."""
        if self.ctx.roomdb_address is None or not self.room:
            return
        client = self._service_client()
        try:
            reply = yield from client.call(
                self.ctx.roomdb_address, ACECmdLine("roomDims", room=self.room)
            )
        except CallError:
            return
        dims = reply.get("dims")
        if dims and any(float(v) > 0 for v in dims):
            self.room_dims = tuple(float(v) for v in dims)

    def on_started(self) -> None:
        self._spawn(self.fetch_room_dims(), "room-dims")

    def cmd_power(self, request: Request) -> dict:
        state = request.command.str("state")
        if state not in ("on", "off"):
            raise ServiceError("state must be on or off")
        self.powered = state == "on"
        return {"state": state}

    def _require_power(self) -> None:
        if not self.powered:
            raise ServiceError(f"device {self.name!r} is powered off")

    def device_state(self) -> dict:
        return {"powered": 1 if self.powered else 0}

    def cmd_getState(self, request: Request) -> dict:
        return self.device_state()


class PTZCameraDaemon(DeviceDaemon):
    """Pan-tilt-zoom camera (the GUI of Fig. 2 drives these)."""

    service_type = "PTZCamera"

    #: (pan°, tilt°, zoom-factor) envelope; model variants override
    PAN_RANGE = (-90.0, 90.0)
    TILT_RANGE = (-30.0, 30.0)
    ZOOM_RANGE = (1.0, 10.0)
    #: seconds per degree of movement (slew rate)
    SLEW_S_PER_DEG = 0.01

    def __init__(self, ctx, name, host, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.pan = 0.0
        self.tilt = 0.0
        self.zoom = 1.0
        self.target: Optional[Tuple[float, float, float]] = None
        self.resolution = (320, 240)
        self.frame_rate = 15.0

    def build_semantics(self, sem: CommandSemantics) -> None:
        super().build_semantics(sem)
        sem.define(
            "setPosition",
            ArgSpec("x", ArgType.NUMBER),
            ArgSpec("y", ArgType.NUMBER),
            ArgSpec("z", ArgType.NUMBER, required=False, default=1.5),
            description="aim at a 3D point in the room (metres)",
        )
        sem.define(
            "setPanTilt",
            ArgSpec("pan", ArgType.NUMBER),
            ArgSpec("tilt", ArgType.NUMBER),
        )
        sem.define("setZoom", ArgSpec("factor", ArgType.NUMBER))
        sem.define(
            "setCapture",
            ArgSpec("width", ArgType.INTEGER),
            ArgSpec("height", ArgType.INTEGER),
            ArgSpec("fps", ArgType.NUMBER),
        )

    def _clamp(self, value: float, lo_hi: Tuple[float, float], what: str) -> float:
        lo, hi = lo_hi
        if not lo <= value <= hi:
            raise ServiceError(f"{what} {value} outside [{lo}, {hi}]")
        return float(value)

    def _slew(self, d_pan: float, d_tilt: float) -> Generator:
        """Physical movement takes real time proportional to the angle."""
        degrees = abs(d_pan) + abs(d_tilt)
        if degrees > 0:
            yield self.ctx.sim.timeout(degrees * self.SLEW_S_PER_DEG)

    def cmd_setPanTilt(self, request: Request) -> Generator:
        self._require_power()
        cmd = request.command
        pan = self._clamp(cmd.float("pan"), self.PAN_RANGE, "pan")
        tilt = self._clamp(cmd.float("tilt"), self.TILT_RANGE, "tilt")
        yield from self._slew(pan - self.pan, tilt - self.tilt)
        self.pan, self.tilt = pan, tilt
        return {"pan": self.pan, "tilt": self.tilt}

    def cmd_setPosition(self, request: Request) -> Generator:
        """Aim at room coordinates: validated against RoomDB dimensions,
        converted to pan/tilt assuming the camera sits at the room origin."""
        import math

        self._require_power()
        cmd = request.command
        x, y, z = cmd.float("x"), cmd.float("y"), cmd.float("z", 1.5)
        if self.room_dims is not None:
            w, d, h = self.room_dims
            if not (0 <= x <= w and 0 <= y <= d and 0 <= z <= h):
                raise ServiceError(f"target ({x},{y},{z}) outside room {self.room_dims}")
        pan = math.degrees(math.atan2(y, x if x != 0 else 1e-9))
        tilt = math.degrees(math.atan2(z - 1.5, max(math.hypot(x, y), 1e-9)))
        pan = max(self.PAN_RANGE[0], min(self.PAN_RANGE[1], pan))
        tilt = max(self.TILT_RANGE[0], min(self.TILT_RANGE[1], tilt))
        yield from self._slew(pan - self.pan, tilt - self.tilt)
        self.pan, self.tilt = pan, tilt
        self.target = (x, y, z)
        return {"pan": round(self.pan, 3), "tilt": round(self.tilt, 3)}

    def cmd_setZoom(self, request: Request) -> dict:
        self._require_power()
        self.zoom = self._clamp(request.command.float("factor"), self.ZOOM_RANGE, "zoom")
        return {"zoom": self.zoom}

    def cmd_setCapture(self, request: Request) -> dict:
        self._require_power()
        cmd = request.command
        self.resolution = (cmd.int("width"), cmd.int("height"))
        self.frame_rate = cmd.float("fps")
        return {"width": self.resolution[0], "height": self.resolution[1],
                "fps": self.frame_rate}

    def device_state(self) -> dict:
        state = super().device_state()
        state.update(
            pan=round(self.pan, 3), tilt=round(self.tilt, 3), zoom=self.zoom,
            width=self.resolution[0], height=self.resolution[1], fps=self.frame_rate,
        )
        return state


class VCC3CameraDaemon(PTZCameraDaemon):
    """Canon VCC3: narrower envelope, slower slew."""

    service_type = "VCC3"
    PAN_RANGE = (-90.0, 90.0)
    TILT_RANGE = (-25.0, 30.0)
    ZOOM_RANGE = (1.0, 10.0)
    SLEW_S_PER_DEG = 0.014


class VCC4CameraDaemon(PTZCameraDaemon):
    """Canon VCC4: wider pan, 16x zoom, faster slew."""

    service_type = "VCC4"
    PAN_RANGE = (-100.0, 100.0)
    TILT_RANGE = (-30.0, 90.0)
    ZOOM_RANGE = (1.0, 16.0)
    SLEW_S_PER_DEG = 0.011


class ProjectorDaemon(DeviceDaemon):
    """Projector base class."""

    service_type = "Projector"
    INPUTS = ("vga", "video", "workspace")

    def __init__(self, ctx, name, host, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.input_source = "vga"
        self.pip_source = ""  # picture-in-picture (Scenario 5)
        self.brightness = 70

    def build_semantics(self, sem: CommandSemantics) -> None:
        super().build_semantics(sem)
        sem.define("setInput", ArgSpec("source", ArgType.STRING))
        sem.define("setPictureInPicture", ArgSpec("source", ArgType.STRING))
        sem.define("setBrightness", ArgSpec("level", ArgType.INTEGER))

    def cmd_setInput(self, request: Request) -> dict:
        self._require_power()
        source = request.command.str("source")
        if source not in self.INPUTS and not source.startswith("stream:"):
            raise ServiceError(f"unknown input {source!r}")
        self.input_source = source
        return {"source": source}

    def cmd_setPictureInPicture(self, request: Request) -> dict:
        self._require_power()
        self.pip_source = request.command.str("source")
        return {"source": self.pip_source}

    def cmd_setBrightness(self, request: Request) -> dict:
        self._require_power()
        level = request.command.int("level")
        if not 0 <= level <= 100:
            raise ServiceError("brightness must be 0..100")
        self.brightness = level
        return {"level": level}

    def device_state(self) -> dict:
        state = super().device_state()
        state.update(source=self.input_source, brightness=self.brightness)
        if self.pip_source:
            state["pip"] = self.pip_source
        return state


class Epson7350ProjectorDaemon(ProjectorDaemon):
    """The Epson PowerLite 7350 of Fig. 6."""

    service_type = "Epson7350"
    INPUTS = ("vga", "video", "workspace", "svideo")
