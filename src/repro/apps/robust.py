"""Restart & robust application support (§5.2–5.3).

The paper calls the watcher "the next step in our current development";
this module builds it exactly as sketched: *notifications alert the
watcher of closed applications*, and it works *in conjunction with the ASD
and the persistent store*.

* :class:`RestartManagerDaemon` subscribes to every HAL's ``appExited``
  notification.  When a managed app crashes it relaunches it — on the same
  host for RESTART apps, via the SAL's resource-aware placement (possibly
  a different host, e.g. when the original died) for ROBUST apps.
* :class:`CheckpointingCounterApp` is the canonical robust application: it
  checkpoints its state to the persistent store every tick and restores it
  on (re)start, so a crash loses at most one checkpoint interval of work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Optional

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.net.host import HostDownError
from repro.sim import Interrupt

from repro.apps.runner import Application, AppClass, _parse_kv
from repro.core.client import CallError, Service
from repro.core.daemon import ACEDaemon, Request, ServiceError
from repro.core.notifications import CALLBACK_ARGS, ClassWatch, notification_event
from repro.services.asd import asd_lookup
from repro.store.client import StoreClient, StoreUnavailable


# ---------------------------------------------------------------------------
# The canonical robust application
# ---------------------------------------------------------------------------

class CheckpointingCounterApp(Application):
    """Counts ticks; checkpoints to the persistent store each tick.

    args: ``app_id=<id> interval=<s>`` — the app discovers the store
    replicas through the ASD, restores ``count`` on start, and increments
    from there.  After a crash + relaunch the count resumes from the last
    checkpoint instead of zero (test + experiment E19 assert this).
    """

    app_class = AppClass.ROBUST

    def __init__(self, ctx, host, args: str = ""):
        super().__init__(ctx, host, "counter", args)
        params = _parse_kv(args)
        self.app_id = params.get("app_id", "counter")
        self.interval = float(params.get("interval", 0.5))
        self.count = 0
        self.restored_from: Optional[int] = None

    def _store(self) -> Generator:
        from repro.core.client import ServiceClient

        client = ServiceClient(self.ctx, self.host, principal=f"app:{self.app_id}")
        replicas = yield from asd_lookup(client, self.ctx.asd_address, cls="PersistentStore")
        if not replicas:
            return None
        return StoreClient(
            self.ctx, self.host, [r.address for r in replicas],
            principal=f"app:{self.app_id}",
        )

    def body(self) -> Generator:
        store = yield from self._store()
        if store is not None:
            state = yield from store.load_state(self.app_id)
            if state is not None:
                self.count = int(state.get("count", 0))
                self.restored_from = self.count
        while True:
            yield self.ctx.sim.timeout(self.interval)
            self.count += 1
            if store is not None:
                try:
                    yield from store.save_state(self.app_id, {"count": str(self.count)})
                except StoreUnavailable:
                    pass  # keep counting; checkpoint again next tick


# ---------------------------------------------------------------------------
# The watcher / restart manager
# ---------------------------------------------------------------------------

@dataclass
class ManagedApp:
    app_id: str
    factory: str
    args: str
    app_class: AppClass
    host: str = ""           # current placement
    pid: int = 0
    restarts: int = 0
    stopped: bool = False    # intentionally stopped; don't resurrect


class RestartManagerDaemon(ACEDaemon):
    """Keeps restart/robust applications alive (§5.2–5.3)."""

    service_type = "RestartManager"

    def __init__(self, ctx, name, host, *, sweep_interval: float = 10.0, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.sweep_interval = sweep_interval
        self.managed: Dict[str, ManagedApp] = {}
        self._by_pid: Dict[int, str] = {}
        self._hals = ClassWatch(self, ("HAL",), {"appExited": "onAppExited"})
        self.recoveries = 0

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define(
            "manageApp",
            ArgSpec("app", ArgType.STRING),
            ArgSpec("app_id", ArgType.STRING),
            ArgSpec("cls", ArgType.WORD),  # restart | robust
            ArgSpec("args", ArgType.STRING, required=False, default=""),
            ArgSpec("host", ArgType.STRING, required=False),
            description="launch and keep alive",
        )
        sem.define("unmanageApp", ArgSpec("app_id", ArgType.STRING))
        sem.define("getManaged", ArgSpec("app_id", ArgType.STRING))
        sem.define("onAppExited", *CALLBACK_ARGS)
        sem.define("onServiceRegistered", *CALLBACK_ARGS)

    def on_started(self) -> None:
        self._spawn(self._hals.watch_directory(), "watch-asd")
        self._spawn(self._hals.scan(), "subscribe-hals")
        self._spawn(self._sweep_loop(), "sweeper")

    def cmd_onServiceRegistered(self, request: Request) -> Generator:
        """A HAL that registers later is watched for ``appExited`` too
        (notification-driven crash detection)."""
        return self._hals.on_registered(request)

    # ------------------------------------------------------------------
    # Launch & recover
    # ------------------------------------------------------------------
    def _launch(self, managed: ManagedApp, prefer_host: Optional[str]) -> Generator:
        """Place via the SAL (restart apps pin their original host)."""
        client = self._service_client()
        command = ACECmdLine(
            "launchApp", app=managed.factory, args=managed.args,
            **({"host": prefer_host} if prefer_host else {}),
        )
        reply = yield from client.call(Service(cls="SAL"), command)
        managed.host = reply.str("host")
        managed.pid = reply.int("pid")
        self._by_pid[managed.pid] = managed.app_id
        return reply

    def cmd_manageApp(self, request: Request) -> Generator:
        cmd = request.command
        app_id = cmd.str("app_id")
        if app_id in self.managed:
            raise ServiceError(f"app_id {app_id!r} already managed")
        cls_word = cmd.str("cls")
        if cls_word not in ("restart", "robust"):
            raise ServiceError("cls must be restart or robust")
        managed = ManagedApp(
            app_id=app_id,
            factory=cmd.str("app"),
            args=cmd.str("args", ""),
            app_class=AppClass(cls_word),
        )
        yield from self._launch(managed, cmd.get("host"))
        self.managed[app_id] = managed
        return {"app_id": app_id, "pid": managed.pid, "host": managed.host}

    def cmd_unmanageApp(self, request: Request) -> dict:
        app_id = request.command.str("app_id")
        managed = self.managed.get(app_id)
        if managed is None:
            raise ServiceError(f"unknown app_id {app_id!r}")
        managed.stopped = True
        return {"app_id": app_id}

    def cmd_getManaged(self, request: Request) -> dict:
        managed = self.managed.get(request.command.str("app_id"))
        if managed is None:
            raise ServiceError("unknown app_id")
        return {"app_id": managed.app_id, "pid": managed.pid,
                "host": managed.host, "restarts": managed.restarts}

    def cmd_onAppExited(self, request: Request) -> Generator:
        event = notification_event(request)
        if event is None:
            return {}
        pid = event.int("pid", 0)
        state = event.str("state", "")
        app_id = self._by_pid.get(pid)
        if app_id is None:
            return {}
        managed = self.managed.get(app_id)
        if managed is None or managed.stopped or managed.pid != pid:
            return {}
        if state != "crashed":
            return {}  # orderly exit: nothing to do
        yield from self._recover(managed)
        return {"app_id": app_id}

    def _recover(self, managed: ManagedApp) -> Generator:
        # RESTART apps return to their original host (if it still lives);
        # ROBUST apps go wherever the SRM points (failover).
        prefer = managed.host if managed.app_class is AppClass.RESTART else None
        host_obj = self.ctx.net.hosts.get(prefer) if prefer else None
        if prefer and (host_obj is None or not host_obj.up):
            prefer = None
        try:
            yield from self._launch(managed, prefer)
        except CallError:
            return
        managed.restarts += 1
        self.recoveries += 1
        self.ctx.trace.emit(
            self.ctx.sim.now, self.name, "app-recovered",
            app_id=managed.app_id, host=managed.host, pid=managed.pid,
        )

    # ------------------------------------------------------------------
    # Polling sweep — catches crashes whose notification was lost
    # (e.g. the whole host died, so the HAL never spoke again)
    # ------------------------------------------------------------------
    def _sweep_loop(self) -> Generator:
        while self.running:
            yield self.ctx.sim.timeout(self.sweep_interval)
            for managed in list(self.managed.values()):
                if managed.stopped or not self.running:
                    continue
                alive = yield from self._probe(managed)
                if alive is False:
                    yield from self._recover(managed)

    def _probe(self, managed: ManagedApp) -> Generator:
        """None = indeterminate, True = running, False = gone."""
        host_obj = self.ctx.net.hosts.get(managed.host)
        if host_obj is not None and not host_obj.up:
            return False
        client = self._service_client()
        try:
            hals = yield from asd_lookup(client, self.ctx.asd_address, cls="HAL")
        except CallError:
            return None
        hal = next((h for h in hals if h.host == managed.host), None)
        if hal is None:
            return False
        try:
            reply = yield from client.call(
                hal.address, ACECmdLine("isRunning", pid=managed.pid)
            )
        except CallError:
            return None
        return reply.int("running") == 1
