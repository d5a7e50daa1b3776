"""HAL — Host Application Launcher (§4.3).

One per host.  Launches registered applications locally "utilizing the
host's local resources", tracks them by pid, kills them, and reports
status.  Application *types* come from the :class:`~repro.apps.runner.
AppRegistry` the environment builder installs (VNC servers, spinners, ...).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.lang import ArgSpec, ArgType, CommandSemantics
from repro.apps.runner import Application, AppRegistry, AppState
from repro.core.daemon import ACEDaemon, Request, ServiceError


class HostApplicationLauncherDaemon(ACEDaemon):
    """Launches applications on its own host (§4.3)."""

    service_type = "HAL"

    def __init__(self, ctx, name, host, *, registry: Optional[AppRegistry] = None, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.registry = registry if registry is not None else AppRegistry()
        self.apps: Dict[int, Application] = {}

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define(
            "launch",
            ArgSpec("app", ArgType.STRING),
            ArgSpec("args", ArgType.STRING, required=False, default=""),
            description="launch an application on this host",
        )
        sem.define("kill", ArgSpec("pid", ArgType.INTEGER))
        sem.define("isRunning", ArgSpec("pid", ArgType.INTEGER))
        sem.define("listRunning")
        sem.define("listApps", description="launchable application types")
        sem.define(
            "appExited",
            ArgSpec("pid", ArgType.INTEGER),
            ArgSpec("app", ArgType.STRING),
            ArgSpec("state", ArgType.STRING),
            ArgSpec("reason", ArgType.STRING, required=False, default=""),
            description="self-emitted when a launched app exits (watch me!)",
        )

    # -- in-process API (used by tests/benchmarks that bypass the wire) -----
    def launch(self, app_name: str, args: str = "") -> Application:
        if app_name not in self.registry:
            raise ServiceError(f"unknown application {app_name!r}")
        app = self.registry.create(app_name, self.ctx, self.host, args)
        app.on_exit(self._on_app_exit)
        app.start()
        self.apps[app.pid] = app
        self.ctx.trace.emit(
            self.ctx.sim.now, self.name, "app-launched",
            app=app_name, pid=app.pid, host=self.host.name,
        )
        return app

    def _on_app_exit(self, app: Application) -> None:
        """Emit ``appExited`` through our own dispatch so watcher services
        registered via addNotification hear about it (§5.2)."""
        if not self.running:
            return
        from repro.lang import ACECmdLine

        command = ACECmdLine(
            "appExited",
            pid=app.pid,
            app=app.name,
            state=app.state.value,
            reason=app.exit_reason or "",
        )
        self._spawn(self.self_execute(command), "app-exit-event")

    # -- handlers ----------------------------------------------------------
    def cmd_launch(self, request: Request) -> dict:
        cmd = request.command
        app = self.launch(cmd.str("app"), cmd.str("args", ""))
        return {"pid": app.pid, "host": self.host.name, "app": app.name}

    def cmd_kill(self, request: Request) -> dict:
        pid = request.command.int("pid")
        app = self.apps.get(pid)
        if app is None:
            raise ServiceError(f"no such pid {pid}")
        app.stop()
        return {"pid": pid}

    def cmd_isRunning(self, request: Request) -> dict:
        pid = request.command.int("pid")
        app = self.apps.get(pid)
        return {"pid": pid, "running": 1 if (app is not None and app.running) else 0}

    def cmd_listRunning(self, request: Request) -> dict:
        running = [a for a in self.apps.values() if a.state is AppState.RUNNING]
        result: dict = {"count": len(running)}
        if running:
            result["apps"] = tuple(f"{a.pid}|{a.name}" for a in sorted(running, key=lambda a: a.pid))
        return result

    def cmd_appExited(self, request: Request) -> dict:
        # Executing this successfully is what fans out the notifications.
        return {"pid": request.command.int("pid")}

    def cmd_listApps(self, request: Request) -> dict:
        known = self.registry.known()
        return {"count": len(known), "apps": tuple(known)}
