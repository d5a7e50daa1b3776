"""Sound-source triangulation (§1.2's "sound triangulation systems",
§9's "audio triangulation").

Microphone daemons around a room timestamp the arrival of a sound event;
the triangulation daemon collects reports for the same event and solves
the TDOA (time-difference-of-arrival) multilateration problem by
Levenberg–Marquardt least squares against the microphone positions it
fetches from the Room Database — the spatial-awareness machinery of
§4.11 doing real work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.core.client import CallError
from repro.core.daemon import ACEDaemon, Request, ServiceError

SPEED_OF_SOUND = 343.0  # m/s


def solve_tdoa(mic_positions: np.ndarray, arrival_times: np.ndarray,
               speed: float = SPEED_OF_SOUND) -> Tuple[np.ndarray, float]:
    """Estimate the 2D source position from arrival times at >= 3 mics.

    Solves for (x, y, t0) minimizing ``|source - mic_i| - speed*(t_i - t0)``
    residuals by Levenberg–Marquardt from the microphones' centroid.
    Returns (position, rms residual in metres).
    """
    mic_positions = np.asarray(mic_positions, dtype=float)[:, :2]
    arrival_times = np.asarray(arrival_times, dtype=float)
    if len(mic_positions) < 3:
        raise ValueError("need at least 3 microphones for 2D TDOA")
    delays = arrival_times - arrival_times.min()

    def residuals(params):
        offsets = params[:2] - mic_positions
        dists = np.hypot(offsets[:, 0], offsets[:, 1])
        return dists - speed * (delays + params[2]), offsets, dists

    params = np.array([*mic_positions.mean(axis=0), 0.001])
    res, offsets, dists = residuals(params)
    cost = res @ res
    damping = 1e-3
    # each parameter is damped by its own curvature (Marquardt); a step that
    # does not lower the cost is retried with more damping
    for _ in range(200):
        jac = np.empty((len(res), 3))
        jac[:, :2] = offsets / np.maximum(dists, 1e-12)[:, None]
        jac[:, 2] = -speed
        normal = jac.T @ jac
        step = np.linalg.solve(
            normal + damping * np.diag(np.diag(normal) + 1e-12), -(jac.T @ res))
        trial = residuals(params + step)
        trial_cost = trial[0] @ trial[0]
        if trial_cost < cost:
            params = params + step
            res, offsets, dists = trial
            converged = cost - trial_cost <= 1e-15 * (1.0 + cost)
            cost = trial_cost
            damping = max(damping * 0.1, 1e-9)
            if converged or np.abs(step).max() <= 1e-12 * (1.0 + np.abs(params).max()):
                break
        else:
            damping *= 10.0
            if damping > 1e12:
                break
    return params[:2], float(np.sqrt(np.mean(res ** 2)))


@dataclass
class _Report:
    mic: str
    position: Tuple[float, float]
    time: float


class SoundTriangulationDaemon(ACEDaemon):
    """Aggregates microphone arrival reports into source positions."""

    service_type = "SoundTriangulation"

    def __init__(self, ctx, name, host, *, window: float = 0.25, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        #: reports for in-flight events, keyed by event id
        self._reports: Dict[str, List[_Report]] = {}
        self.window = window
        #: event id -> (x, y, rms)
        self.located: Dict[str, Tuple[float, float, float]] = {}

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define(
            "reportArrival",
            ArgSpec("event", ArgType.STRING),
            ArgSpec("mic", ArgType.STRING),
            ArgSpec("time", ArgType.NUMBER),
            description="a microphone heard event at its local time",
        )
        sem.define("locate", ArgSpec("event", ArgType.STRING))
        sem.define(
            "soundLocated",
            ArgSpec("event", ArgType.STRING),
            ArgSpec("x", ArgType.NUMBER),
            ArgSpec("y", ArgType.NUMBER),
            ArgSpec("rms", ArgType.NUMBER, required=False, default=0.0),
            description="emitted when an event is triangulated (watch me!)",
        )

    def _mic_position(self, mic: str) -> Generator:
        """Where is this microphone?  Ask the Room Database (§4.11)."""
        if self.ctx.roomdb_address is None:
            return None
        try:
            reply = yield from self.client.call(
                self.ctx.roomdb_address, ACECmdLine("whereIs", service=mic))
        except CallError:
            return None
        position = reply.get("position")
        if position is None:
            return None
        return (float(position[0]), float(position[1]))

    def cmd_reportArrival(self, request: Request) -> Generator:
        cmd = request.command
        position = yield from self._mic_position(cmd.str("mic"))
        if position is None:
            raise ServiceError(f"microphone {cmd.str('mic')!r} has no known "
                               "position in the Room Database")
        event = cmd.str("event")
        reports = self._reports.setdefault(event, [])
        reports.append(_Report(cmd.str("mic"), position, cmd.float("time")))
        if len(reports) >= 3 and event not in self.located:
            yield from self._try_locate(event)
        return {"event": event, "reports": len(reports)}

    def _try_locate(self, event: str) -> Generator:
        reports = self._reports.get(event, [])
        if len(reports) < 3:
            raise ServiceError(f"event {event!r} has only {len(reports)} reports")
        mics = np.array([r.position for r in reports])
        times = np.array([r.time for r in reports])
        yield from self.host.execute(5.0)  # the least-squares solve
        position, rms = solve_tdoa(mics, times)
        self.located[event] = (float(position[0]), float(position[1]), rms)
        yield from self.self_execute(ACECmdLine(
            "soundLocated", event=event,
            x=round(float(position[0]), 4), y=round(float(position[1]), 4),
            rms=round(rms, 6),
        ))
        return position, rms

    def cmd_locate(self, request: Request) -> Generator:
        event = request.command.str("event")
        if event in self.located:
            x, y, rms = self.located[event]
            return {"event": event, "x": x, "y": y, "rms": rms}
        yield from self._try_locate(event)
        x, y, rms = self.located[event]
        return {"event": event, "x": round(x, 4), "y": round(y, 4),
                "rms": round(rms, 6)}

    def cmd_soundLocated(self, request: Request) -> dict:
        return {"event": request.command.str("event")}


def simulate_sound_event(source_xy: Tuple[float, float],
                         mic_positions: List[Tuple[float, float]],
                         event_time: float = 0.0,
                         jitter_s: float = 0.0,
                         rng: Optional[np.random.Generator] = None) -> List[float]:
    """Arrival times a real sound at ``source_xy`` would produce."""
    times = []
    for mx, my in mic_positions:
        dist = float(np.hypot(mx - source_xy[0], my - source_xy[1]))
        t = event_time + dist / SPEED_OF_SOUND
        if rng is not None and jitter_s > 0:
            t += float(rng.normal(0, jitter_s))
        times.append(t)
    return times
