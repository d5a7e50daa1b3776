"""FIU — Fingerprint Identification Unit (§4.8).

The paper drives a Sony FIU-001/500; here the sensor is simulated: a
fingerprint is a feature vector, enrollment stores clean templates in the
AUD, and a physical press produces a noisy sample (Gaussian noise from a
seeded stream).  The daemon loads templates from the AUD ("loading its
tables of known fingerprints"), matches with nearest-template Euclidean
distance under a threshold, and — crucially for the scenarios — runs an
``identified``/``identifyFailed`` command through its own dispatch path so
notification listeners (the ID Monitor) fire exactly as in Fig. 8.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

import numpy as np

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.core.client import CallError, Service
from repro.core.daemon import Request, ServiceError
from repro.services.devices import DeviceDaemon

#: dimensionality of the simulated fingerprint feature space
TEMPLATE_DIM = 16


def make_template(rng: np.random.Generator) -> Tuple[float, ...]:
    """A user's true fingerprint features (unit-ish scale)."""
    return tuple(float(round(v, 6)) for v in rng.normal(0.0, 1.0, TEMPLATE_DIM))


def noisy_sample(
    template: Tuple[float, ...], rng: np.random.Generator, noise: float = 0.05
) -> Tuple[float, ...]:
    """What the sensor reads when a (possibly sweaty) finger is pressed."""
    arr = np.asarray(template) + rng.normal(0.0, noise, len(template))
    return tuple(float(round(v, 6)) for v in arr)


class FingerprintUnitDaemon(DeviceDaemon):
    """Controller interface to the (simulated) Sony FIU sensor."""

    service_type = "FIU"

    def __init__(self, ctx, name, host, *, threshold: float = 1.0,
                 reload_interval: float = 30.0, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.powered = True  # the sensor is always listening
        self.threshold = threshold
        self.reload_interval = reload_interval
        #: username -> template matrix row index
        self._usernames: list = []
        self._templates: Optional[np.ndarray] = None
        self.scans = 0
        self.matches = 0

    def build_semantics(self, sem: CommandSemantics) -> None:
        super().build_semantics(sem)
        sem.define(
            "scan",
            ArgSpec("sample", ArgType.VECTOR),
            description="a finger pressed to the sensor (driver-injected)",
        )
        sem.define("loadTemplates", description="(re)load known prints from the AUD")
        sem.define(
            "identified",
            ArgSpec("username", ArgType.STRING),
            ArgSpec("location", ArgType.STRING),
            ArgSpec("distance", ArgType.NUMBER, required=False, default=0.0),
            description="emitted on a positive match (watch me!)",
        )
        sem.define(
            "identifyFailed",
            ArgSpec("location", ArgType.STRING),
            ArgSpec("distance", ArgType.NUMBER, required=False, default=0.0),
            description="emitted on a failed identification",
        )

    def on_started(self) -> None:
        super().on_started()
        self._spawn(self._reload_loop(), "template-reload")

    # ------------------------------------------------------------------
    def _reload_loop(self) -> Generator:
        while self.running:
            try:
                yield from self._load_templates()
            except Exception:
                pass
            yield self.ctx.sim.timeout(self.reload_interval)

    def _load_templates(self) -> Generator:
        client = self._service_client()
        try:
            reply = yield from client.call(
                Service(cls="UserDatabase"), ACECmdLine("listFingerprints")
            )
        except CallError:
            return
        users = reply.get("users", ())
        templates = reply.get("templates", ())
        if users and templates:
            self._usernames = list(users)
            self._templates = np.asarray(templates, dtype=float)
        else:
            self._usernames = []
            self._templates = None

    def match(self, sample: Tuple[float, ...]) -> Tuple[Optional[str], float]:
        """Nearest-template match; returns ``(username | None, distance)``."""
        if self._templates is None or not len(self._usernames):
            return None, float("inf")
        vec = np.asarray(sample, dtype=float)
        if vec.shape[0] != self._templates.shape[1]:
            return None, float("inf")
        distances = np.linalg.norm(self._templates - vec, axis=1)
        best = int(np.argmin(distances))
        if distances[best] <= self.threshold:
            return self._usernames[best], float(distances[best])
        return None, float(distances[best])

    # -- handlers -------------------------------------------------------------
    def cmd_loadTemplates(self, request: Request) -> Generator:
        yield from self._load_templates()
        return {"count": len(self._usernames)}

    def cmd_scan(self, request: Request) -> Generator:
        sample = request.command.vector("sample")
        self.scans += 1
        username, distance = self.match(tuple(float(v) for v in sample))
        location = self.room or self.host.name
        if username is not None:
            self.matches += 1
            yield from self.self_execute(
                ACECmdLine("identified", username=username, location=location,
                           distance=round(distance, 6))
            )
            return {"matched": 1, "username": username, "distance": round(distance, 6)}
        yield from self.self_execute(
            ACECmdLine("identifyFailed", location=location,
                       distance=round(min(distance, 1e9), 6))
        )
        return {"matched": 0, "distance": round(min(distance, 1e9), 6)}

    def cmd_identified(self, request: Request) -> dict:
        # The work happens in the listeners (ID Monitor); executing the
        # command successfully is what triggers their notifications.
        return {"username": request.command.str("username")}

    def cmd_identifyFailed(self, request: Request) -> dict:
        return {}
