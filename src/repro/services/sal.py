"""SAL — System Application Launcher (§4.4).

The system-wide front door for running applications: a client asks the SAL,
the SAL picks a host ("randomly or by resource allocation by communicating
with the SRM", §4.4) and delegates to that host's HAL.  Both placement
policies are implemented so experiment E6 can compare them.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.core.client import CallError, Service
from repro.core.daemon import ACEDaemon, Request, ServiceError
from repro.services.asd import ServiceRecord, asd_lookup


class SystemApplicationLauncherDaemon(ACEDaemon):
    """System-wide launcher delegating to per-host HALs (§4.4)."""

    service_type = "SAL"

    def __init__(self, ctx, name, host, *, placement: str = "srm", **kwargs):
        """``placement``: 'srm' (resource-aware, default) or 'random'."""
        if placement not in ("srm", "random"):
            raise ValueError(f"placement must be srm|random, got {placement!r}")
        super().__init__(ctx, name, host, **kwargs)
        self.placement = placement
        self._placement_rng = ctx.rng.py(f"sal.{name}.placement")

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define(
            "launchApp",
            ArgSpec("app", ArgType.STRING),
            ArgSpec("args", ArgType.STRING, required=False, default=""),
            ArgSpec("host", ArgType.STRING, required=False),
            ArgSpec("min_mem_mb", ArgType.NUMBER, required=False, default=0.0),
            description="launch anywhere suitable in the ACE (§4.4)",
        )
        sem.define("setPlacement", ArgSpec("policy", ArgType.WORD))

    # ------------------------------------------------------------------
    def _find_hals(self) -> Generator:
        records = yield from asd_lookup(self.client, self.ctx.asd_address, cls="HAL")
        return records

    def _pick_hal(self, hals, target_host: Optional[str]) -> Optional[ServiceRecord]:
        if target_host is not None:
            for record in hals:
                if record.host == target_host:
                    return record
            return None
        if not hals:
            return None
        return hals[self._placement_rng.randrange(len(hals))]

    def _srm_choice(self, min_mem_mb: float) -> Generator:
        try:
            reply = yield from self.client.call(
                Service(cls="SRM"),
                ACECmdLine("selectHost", min_mem_mb=float(min_mem_mb)),
            )
        except CallError:
            return None
        return reply.str("host")

    def cmd_launchApp(self, request: Request) -> Generator:
        cmd = request.command
        target_host = cmd.get("host")
        if target_host is None and self.placement == "srm":
            target_host = yield from self._srm_choice(cmd.float("min_mem_mb", 0.0))
        hals = yield from self._find_hals()
        record = self._pick_hal(hals, target_host)
        if record is None:
            raise ServiceError(
                f"no HAL available on {target_host!r}" if target_host else "no HALs registered"
            )
        try:
            reply = yield from self.client.call(
                record.address,
                ACECmdLine("launch", app=cmd.str("app"), args=cmd.str("args", "")),
            )
        except CallError as exc:
            raise ServiceError(f"delegation to {record.name} failed: {exc}")
        self.ctx.trace.emit(
            self.ctx.sim.now, self.name, "app-placed",
            app=cmd.str("app"), host=reply.str("host"), pid=reply.int("pid"),
        )
        return {"pid": reply.int("pid"), "host": reply.str("host"), "app": cmd.str("app")}

    def cmd_setPlacement(self, request: Request) -> dict:
        policy = request.command.str("policy")
        if policy not in ("srm", "random"):
            raise ServiceError("policy must be srm or random")
        self.placement = policy
        return {"policy": policy}
