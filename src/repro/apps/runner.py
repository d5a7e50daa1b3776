"""Generic ACE applications and the HAL's launch registry.

An :class:`Application` is a long-lived process pinned to a host.  The
paper's three execution classes (§5.1–5.3) are modeled as
:class:`AppClass`:

* ``TEMPORARY``  — nobody cares if it dies (word processors, browsers).
* ``RESTART``    — must be restarted after a crash; small outage tolerated.
* ``ROBUST``     — must not be down: hot state in the persistent store,
  failover handled by the restart manager (:mod:`repro.apps.robust`).

Concrete behaviours subclass :class:`Application` and override ``body``;
the HAL launches instances through an :class:`AppRegistry` of factories.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.net.host import Host, HostDownError
from repro.sim import Interrupt

from repro.core.context import DaemonContext


class AppClass(enum.Enum):
    """The three execution classes of §5.1–5.3."""

    TEMPORARY = "temporary"
    RESTART = "restart"
    ROBUST = "robust"


class AppState(enum.Enum):
    """Lifecycle state of an application process."""

    NEW = "new"
    RUNNING = "running"
    STOPPED = "stopped"   # orderly stop
    CRASHED = "crashed"   # exception or host death


_pid_counter = itertools.count(1000)


class Application:
    """Base class for anything the HAL can launch."""

    app_class = AppClass.TEMPORARY

    def __init__(self, ctx: DaemonContext, host: Host, name: str, args: str = ""):
        self.ctx = ctx
        self.host = host
        self.name = name
        self.args = args
        self.pid = next(_pid_counter)
        self.state = AppState.NEW
        self.exit_reason: Optional[str] = None
        self._proc = None
        self._exit_callbacks: List[Callable[["Application"], None]] = []

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Application":
        if self.state is AppState.RUNNING:
            return self
        self.state = AppState.RUNNING
        self.host.residents[self] = None
        self._proc = self.ctx.sim.process(self._run(), name=f"app:{self.name}:{self.pid}")
        return self

    def stop(self) -> None:
        if self.state is AppState.RUNNING and self._proc is not None:
            self._proc.interrupt("stopped")

    def crash(self) -> None:
        """Fault injection: make the app die as if it hit a bug."""
        if self.state is AppState.RUNNING and self._proc is not None:
            self._proc.interrupt("crash")

    def kill(self) -> None:
        """Its host crashed: the app ends ``CRASHED`` / ``"host down"``."""
        if self.state is AppState.RUNNING and self._proc is not None:
            self._proc.interrupt("host down")

    def on_exit(self, callback: Callable[["Application"], None]) -> None:
        self._exit_callbacks.append(callback)

    @property
    def running(self) -> bool:
        return self.state is AppState.RUNNING

    # -- behaviour ----------------------------------------------------------
    def body(self) -> Generator:
        """Override: the application's work.  Default: idle forever."""
        while True:
            yield self.ctx.sim.timeout(3600.0)

    def _run(self) -> Generator:
        try:
            yield from self.body()
            self.state = AppState.STOPPED
            self.exit_reason = "completed"
        except Interrupt as intr:
            crash = {"crash": "injected crash", "host down": "host down"}.get(intr.cause)
            self.state = AppState.STOPPED if crash is None else AppState.CRASHED
            self.exit_reason = crash or str(intr.cause)
        except HostDownError:
            self.state = AppState.CRASHED
            self.exit_reason = "host down"
        except Exception as exc:  # noqa: BLE001 - app bugs become crashes
            self.state = AppState.CRASHED
            self.exit_reason = f"exception: {exc}"
        self.host.residents.pop(self, None)
        self.ctx.trace.emit(
            self.ctx.sim.now, f"app:{self.name}", "app-exit",
            pid=self.pid, state=self.state.value, reason=self.exit_reason,
        )
        for callback in self._exit_callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Application {self.name} pid={self.pid} {self.state.value}>"


class IdleApplication(Application):
    """Does nothing; the default TEMPORARY app ('word processor')."""


class CpuSpinner(Application):
    """Burns CPU in bursts — the load generator for placement experiments.

    args: ``"work=<bogomips-seconds> interval=<s> iterations=<n>"``
    (iterations<=0 = forever).
    """

    def body(self) -> Generator:
        params = _parse_kv(self.args)
        work = float(params.get("work", 100.0))
        interval = float(params.get("interval", 1.0))
        iterations = int(params.get("iterations", 0))
        count = 0
        while iterations <= 0 or count < iterations:
            yield from self.host.execute(work)
            yield self.ctx.sim.timeout(interval)
            count += 1


def _parse_kv(args: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for part in args.split():
        if "=" in part:
            key, value = part.split("=", 1)
            out[key] = value
    return out


AppFactory = Callable[[DaemonContext, Host, str], Application]


class AppRegistry:
    """Name → factory registry the HAL launches from."""

    def __init__(self) -> None:
        self._factories: Dict[str, AppFactory] = {}
        self.register("idle", lambda ctx, host, args: IdleApplication(ctx, host, "idle", args))
        self.register(
            "cpu_spinner", lambda ctx, host, args: CpuSpinner(ctx, host, "cpu_spinner", args)
        )

    def register(self, name: str, factory: AppFactory) -> None:
        self._factories[name] = factory

    def known(self) -> List[str]:
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def create(self, name: str, ctx: DaemonContext, host: Host, args: str = "") -> Application:
        try:
            factory = self._factories[name]
        except KeyError:
            raise KeyError(f"unknown application {name!r}; known: {self.known()}")
        return factory(ctx, host, args)
