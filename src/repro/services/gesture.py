"""Gesture recognition (§9: "gesture and face recognition", §7.5's
"commands ... given by voice and gestures").

A gesture is a 2D stroke — the trajectory a hand (or laser pointer) traces
in front of a camera.  The recognizer is the classic $1-style template
matcher: strokes are resampled to a fixed number of points, translated to
their centroid, scale-normalized, and compared by mean point-to-point
distance against enrolled templates.  Like the speech-to-command daemon,
a recognized gesture fires a mapped ACE command.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics, parse_command
from repro.net import Address
from repro.core.client import CallError
from repro.core.daemon import ACEDaemon, Request, ServiceError

#: every stroke is resampled to this many points before matching
RESAMPLE_POINTS = 32


def _as_stroke(flat: Tuple[float, ...]) -> np.ndarray:
    """A flat (x1,y1,x2,y2,...) vector → an (N,2) array."""
    if len(flat) < 6 or len(flat) % 2 != 0:
        raise ServiceError("a stroke needs >= 3 (x,y) pairs, flattened")
    return np.asarray(flat, dtype=float).reshape(-1, 2)


def resample(stroke: np.ndarray, n: int = RESAMPLE_POINTS) -> np.ndarray:
    """Resample to n points equally spaced along the path length."""
    deltas = np.diff(stroke, axis=0)
    seg_lengths = np.hypot(deltas[:, 0], deltas[:, 1])
    total = float(seg_lengths.sum())
    if total <= 0:
        return np.repeat(stroke[:1], n, axis=0)
    cumulative = np.concatenate([[0.0], np.cumsum(seg_lengths)])
    targets = np.linspace(0.0, total, n)
    xs = np.interp(targets, cumulative, stroke[:, 0])
    ys = np.interp(targets, cumulative, stroke[:, 1])
    return np.column_stack([xs, ys])


def normalize(stroke: np.ndarray) -> np.ndarray:
    """Translate to centroid, scale to unit RMS radius."""
    pts = resample(stroke)
    pts = pts - pts.mean(axis=0)
    scale = float(np.sqrt((pts ** 2).sum(axis=1).mean()))
    if scale > 1e-9:
        pts = pts / scale
    return pts


def stroke_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Mean point-to-point distance between normalized strokes (the better
    of forward and reversed drawing directions)."""
    na, nb = normalize(a), normalize(b)
    forward = float(np.hypot(*(na - nb).T).mean())
    backward = float(np.hypot(*(na - nb[::-1]).T).mean())
    return min(forward, backward)


# -- canonical gesture shapes for enrollment/demo ---------------------------

def make_gesture(shape: str, n: int = 24, rng: Optional[np.random.Generator] = None,
                 noise: float = 0.0) -> Tuple[float, ...]:
    """Synthesize a named stroke (circle, zigzag, line, vee), flattened."""
    t = np.linspace(0, 1, n)
    if shape == "circle":
        pts = np.column_stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)])
    elif shape == "line":
        pts = np.column_stack([t, np.zeros_like(t)])
    elif shape == "zigzag":
        pts = np.column_stack([t, 0.3 * np.sign(np.sin(6 * np.pi * t)) * np.minimum(1, 10 * t * (1 - t))])
    elif shape == "vee":
        pts = np.column_stack([t, np.abs(t - 0.5)])
    else:
        raise ValueError(f"unknown gesture shape {shape!r}")
    if rng is not None and noise > 0:
        pts = pts + rng.normal(0, noise, pts.shape)
    return tuple(float(round(v, 6)) for v in pts.reshape(-1))


class GestureRecognitionDaemon(ACEDaemon):
    """Matches strokes against enrolled gestures; fires mapped commands."""

    service_type = "GestureRecognition"

    def __init__(self, ctx, name, host, *, threshold: float = 0.35, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.threshold = threshold
        self._templates: Dict[str, np.ndarray] = {}
        #: gesture name -> (target address, command string)
        self.mappings: Dict[str, Tuple[Address, str]] = {}
        self.recognized: List[Tuple[float, str]] = []

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define(
            "enrollGesture",
            ArgSpec("gesture", ArgType.WORD),
            ArgSpec("stroke", ArgType.VECTOR),
            description="store a template stroke (flattened x,y pairs)",
        )
        sem.define(
            "mapGesture",
            ArgSpec("gesture", ArgType.WORD),
            ArgSpec("host", ArgType.STRING),
            ArgSpec("port", ArgType.INTEGER),
            ArgSpec("command", ArgType.STRING),
        )
        sem.define(
            "observeStroke",
            ArgSpec("stroke", ArgType.VECTOR),
            description="a stroke seen by the camera (driver-injected)",
        )
        sem.define("gestureRecognized", ArgSpec("gesture", ArgType.WORD),
                   ArgSpec("distance", ArgType.NUMBER, required=False, default=0.0))

    def cmd_enrollGesture(self, request: Request) -> dict:
        cmd = request.command
        stroke = _as_stroke(cmd.vector("stroke"))
        self._templates[cmd.str("gesture")] = normalize(stroke)
        return {"gestures": len(self._templates)}

    def cmd_mapGesture(self, request: Request) -> dict:
        cmd = request.command
        if cmd.str("gesture") not in self._templates:
            raise ServiceError(f"enroll gesture {cmd.str('gesture')!r} first")
        try:
            parse_command(cmd.str("command"))
        except Exception as exc:
            raise ServiceError(f"unparseable mapped command: {exc}")
        self.mappings[cmd.str("gesture")] = (
            Address(cmd.str("host"), cmd.int("port")), cmd.str("command"))
        return {"mapped": len(self.mappings)}

    def classify(self, stroke: np.ndarray) -> Tuple[Optional[str], float]:
        if not self._templates:
            return None, float("inf")
        scored = sorted(
            (stroke_distance(stroke, tpl), name)
            for name, tpl in self._templates.items()
        )
        best_distance, best_name = scored[0]
        if best_distance > self.threshold:
            return None, best_distance
        return best_name, best_distance

    def cmd_observeStroke(self, request: Request) -> Generator:
        stroke = _as_stroke(request.command.vector("stroke"))
        yield from self.host.execute(3.0)  # vision work
        name, distance = self.classify(stroke)
        if name is None:
            return {"matched": 0, "distance": round(min(distance, 1e9), 6)}
        self.recognized.append((self.ctx.sim.now, name))
        yield from self.self_execute(
            ACECmdLine("gestureRecognized", gesture=name, distance=round(distance, 6)))
        mapping = self.mappings.get(name)
        if mapping is not None:
            target, command_text = mapping
            try:
                yield from self.client.call(target, parse_command(command_text))
            except CallError:
                self.ctx.trace.emit(self.ctx.sim.now, self.name,
                                    "gesture-command-failed", gesture=name)
        return {"matched": 1, "gesture": name, "distance": round(distance, 6)}

    def cmd_gestureRecognized(self, request: Request) -> dict:
        return {"gesture": request.command.str("gesture")}
