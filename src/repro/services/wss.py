"""WSS — Workspace Server (§4.5, §5.4).

Creates, names, tracks, and destroys user workspaces.  A workspace is one
VNC server session (§5.4): creating a workspace asks the SAL to launch a
``vncserver`` application "somewhere" (Scenario 1's SAL→SRM→HAL chain);
opening one launches a ``vncviewer`` on the user's current access point.
Passwords are generated and held by the WSS and written straight into the
VNC server ("the VNC password files were directly accessed and modified by
the WSS"), so identification via FIU/iButton is all a user ever does.

When the environment has a persistent store (``ctx.store_addresses``),
workspace records are checkpointed under ``/wss/workspaces/...`` and
restored at startup, so a restarted WSS still knows every live session
(§5.2's restart-application recipe applied to a core service).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.lang.wire import join_wire, split_wire
from repro.net import Address
from repro.core.client import CallError, Service
from repro.core.daemon import ACEDaemon, Request, ServiceError
from repro.services.asd import asd_lookup
from repro.services.base import Checkpointable


def vnc_service_name(session: str) -> str:
    """Deterministic ACE service name of the VNC server hosting a session."""
    return f"vnc.{session}"


@dataclass
class WorkspaceRecord:
    user: str
    name: str            # e.g. "john-default"
    session: str         # VNC session id (same as name)
    password: str
    server_service: str  # ACE service name of the VNC server daemon
    server_host: str = ""
    server_port: int = 0
    viewers: int = 0

    @property
    def server_address(self) -> Address:
        return Address(self.server_host, self.server_port)


class WorkspaceServerDaemon(Checkpointable, ACEDaemon):
    """Creates, names, tracks, opens, and destroys workspaces (§4.5)."""

    service_type = "WorkspaceServer"

    def __init__(self, ctx, name, host, *, admin_secret: str = "wss-secret",
                 persist: bool = True, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.admin_secret = admin_secret
        #: (user, workspace-name) -> record
        self.workspaces: Dict[Tuple[str, str], WorkspaceRecord] = {}
        self._pw_rng = ctx.rng.py(f"wss.{name}.passwords")
        #: checkpoint records in the persistent store (when one exists)
        self.persist = persist
        self.restored = 0
        self._store = None
        self._m_persisted = ctx.obs.metrics.counter(f"wss.{name}.persisted")
        self._m_restored = ctx.obs.metrics.counter(f"wss.{name}.restored")

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define(
            "createWorkspace",
            ArgSpec("user", ArgType.STRING),
            ArgSpec("name", ArgType.STRING, required=False),
            description="launch a VNC server session for the user (§7.1)",
        )
        sem.define(
            "ensureDefaultWorkspace",
            ArgSpec("user", ArgType.STRING),
            description="create the default workspace iff the user has none",
        )
        sem.define("listWorkspaces", ArgSpec("user", ArgType.STRING))
        sem.define(
            "openWorkspace",
            ArgSpec("user", ArgType.STRING),
            ArgSpec("display", ArgType.STRING),
            ArgSpec("name", ArgType.STRING, required=False),
            description="bring the workspace up on an access point (§7.3)",
        )
        sem.define(
            "destroyWorkspace",
            ArgSpec("user", ArgType.STRING),
            ArgSpec("name", ArgType.STRING),
        )

    # ------------------------------------------------------------------
    # Store-backed checkpointing (best effort; memory is the primary copy)
    # ------------------------------------------------------------------
    def on_started(self) -> None:
        if self._store_client() is not None:
            self._spawn(self._restore_workspaces(), "restore")

    def _store_client(self):
        if not self.persist or not self.ctx.store_addresses:
            return None
        if self._store is None:
            from repro.store.client import StoreClient

            # cache_reads: the WSS re-reads its own checkpoints (restore,
            # repeated lookups) far more often than anyone else writes them.
            self._store = StoreClient(
                self.ctx, self.host, list(self.ctx.store_addresses),
                principal=f"wss.{self.name}", cache_reads=True,
            )
        return self._store

    @staticmethod
    def _ws_path(user: str, name: str) -> str:
        return f"/wss/workspaces/{user}/{name}"

    def _persist_record(self, record: WorkspaceRecord) -> Generator:
        store = self._store_client()
        if store is None:
            return
        try:
            yield from store.put(self._ws_path(record.user, record.name), {
                "user": record.user, "name": record.name,
                "session": record.session, "password": record.password,
                "service": record.server_service, "host": record.server_host,
                "port": str(record.server_port),
            })
            self._m_persisted.inc()
        except CallError:
            pass

    def _unpersist_record(self, user: str, name: str) -> Generator:
        store = self._store_client()
        if store is None:
            return
        try:
            yield from store.delete(self._ws_path(user, name))
        except CallError:
            pass

    def _restore_workspaces(self) -> Generator:
        store = self._store_client()
        try:
            paths = yield from store.list("/wss/workspaces")
            for path in paths:
                attrs = yield from store.get(path)
                if not attrs:
                    continue
                key = (attrs.get("user", ""), attrs.get("name", ""))
                if not key[0] or not key[1] or key in self.workspaces:
                    continue
                self.workspaces[key] = WorkspaceRecord(
                    user=key[0], name=key[1],
                    session=attrs.get("session", key[1]),
                    password=attrs.get("password", ""),
                    server_service=attrs.get("service", ""),
                    server_host=attrs.get("host", ""),
                    server_port=int(attrs.get("port", "0") or 0),
                )
                self.restored += 1
                self._m_restored.inc()
            if self.restored:
                self.ctx.trace.emit(
                    self.ctx.sim.now, self.name, "workspaces-restored",
                    count=self.restored,
                )
        except CallError:
            pass

    # ------------------------------------------------------------------
    # Recovery-plane checkpointing (supervisor-driven, whole-state)
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> Tuple[str, ...]:
        return tuple(
            join_wire((
                r.user, r.name, r.session, r.password, r.server_service,
                r.server_host, r.server_port, r.viewers,
            ))
            for _, r in sorted(self.workspaces.items())
        )

    def restore_state(self, lines: Tuple[str, ...]) -> None:
        self.workspaces.clear()
        for line in lines:
            fields = split_wire(line)
            if len(fields) != 8:
                continue
            user, name, session, password, service, host, port, viewers = fields
            self.workspaces[(user, name)] = WorkspaceRecord(
                user=user, name=name, session=session, password=password,
                server_service=service, server_host=host,
                server_port=int(port), viewers=int(viewers),
            )

    # ------------------------------------------------------------------
    def _user_workspaces(self, user: str) -> List[WorkspaceRecord]:
        return [rec for (u, _), rec in sorted(self.workspaces.items()) if u == user]

    def _gen_password(self) -> str:
        return "pw%012x" % self._pw_rng.getrandbits(48)

    def _find_service(self, cls: Optional[str] = None, name: Optional[str] = None,
                      host: Optional[str] = None) -> Generator:
        client = self._service_client()
        records = yield from asd_lookup(client, self.ctx.asd_address, cls=cls, name=name)
        if host is not None:
            records = [r for r in records if r.host == host]
        return records

    def _create_workspace(self, user: str, ws_name: str) -> Generator:
        key = (user, ws_name)
        if key in self.workspaces:
            raise ServiceError(f"workspace {ws_name!r} already exists for {user!r}")
        password = self._gen_password()
        session = ws_name
        service_name = vnc_service_name(session)
        # Scenario 1: ask the SAL to start a VNC server session "somewhere".
        client = self._service_client()
        args = (
            f"session={session} owner={user} password={password} "
            f"secret={self.admin_secret}"
        )
        reply = yield from client.call(
            Service(cls="SAL"), ACECmdLine("launchApp", app="vncserver", args=args)
        )
        server_host = reply.str("host")
        # The daemon registers with the ASD under a deterministic name;
        # poll briefly until registration lands.
        record = WorkspaceRecord(
            user=user, name=ws_name, session=session, password=password,
            server_service=service_name, server_host=server_host,
        )
        for _ in range(20):
            found = yield from self._find_service(name=service_name)
            if found:
                record.server_host = found[0].host
                record.server_port = found[0].port
                break
            yield self.ctx.sim.timeout(0.1)
        else:
            raise ServiceError(f"VNC server {service_name!r} never registered")
        self.workspaces[key] = record
        yield from self._persist_record(record)
        self.ctx.trace.emit(
            self.ctx.sim.now, self.name, "workspace-created",
            user=user, workspace=ws_name, host=record.server_host,
        )
        return record

    # -- handlers -------------------------------------------------------------
    def cmd_createWorkspace(self, request: Request) -> Generator:
        cmd = request.command
        user = cmd.str("user")
        ws_name = cmd.get("name") or f"{user}-default"
        record = yield from self._create_workspace(user, ws_name)
        return {
            "user": user, "workspace": record.name,
            "host": record.server_host, "port": record.server_port,
        }

    def cmd_ensureDefaultWorkspace(self, request: Request) -> Generator:
        user = request.command.str("user")
        existing = self._user_workspaces(user)
        if existing:
            first = existing[0]
            return {"user": user, "workspace": first.name, "created": 0,
                    "host": first.server_host, "port": first.server_port}
        record = yield from self._create_workspace(user, f"{user}-default")
        return {"user": user, "workspace": record.name, "created": 1,
                "host": record.server_host, "port": record.server_port}

    def cmd_listWorkspaces(self, request: Request) -> dict:
        user = request.command.str("user")
        records = self._user_workspaces(user)
        result: dict = {"user": user, "count": len(records)}
        if records:
            result["workspaces"] = tuple(r.name for r in records)
        return result

    def cmd_openWorkspace(self, request: Request) -> Generator:
        """Scenario 3: launch a viewer at the user's access point."""
        cmd = request.command
        user = cmd.str("user")
        display = cmd.str("display")
        records = self._user_workspaces(user)
        if not records:
            raise ServiceError(f"user {user!r} has no workspaces")
        ws_name = cmd.get("name")
        if ws_name is None:
            record = records[0]
        else:
            matching = [r for r in records if r.name == ws_name]
            if not matching:
                raise ServiceError(f"user {user!r} has no workspace {ws_name!r}")
            record = matching[0]
        hals = yield from self._find_service(cls="HAL", host=display)
        if not hals:
            raise ServiceError(f"no HAL on display host {display!r}")
        client = self._service_client()
        args = (
            f"server={record.server_host}:{record.server_port} "
            f"session={record.session} password={record.password}"
        )
        reply = yield from client.call(
            hals[0].address, ACECmdLine("launch", app="vncviewer", args=args)
        )
        record.viewers += 1
        self.ctx.trace.emit(
            self.ctx.sim.now, self.name, "workspace-opened",
            user=user, workspace=record.name, display=display,
        )
        return {"user": user, "workspace": record.name,
                "viewer_pid": reply.int("pid"), "display": display}

    def cmd_destroyWorkspace(self, request: Request) -> Generator:
        cmd = request.command
        key = (cmd.str("user"), cmd.str("name"))
        record = self.workspaces.pop(key, None)
        if record is None:
            raise ServiceError(f"no workspace {key[1]!r} for user {key[0]!r}")
        yield from self._unpersist_record(key[0], key[1])
        client = self._service_client()
        try:
            yield from client.call(
                record.server_address,
                ACECmdLine("destroySession", session=record.session,
                           admin=self.admin_secret),
            )
        except CallError:
            pass  # server already gone; the record removal is what matters
        return {"removed": 1}
