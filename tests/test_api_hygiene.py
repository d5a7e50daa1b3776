"""Meta-tests enforcing the documentation/API discipline of deliverable (e):
every public module and class carries a docstring; every daemon's command
vocabulary is fully declared in its semantics.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

REPO = Path(repro.__file__).parents[2]


def iter_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def test_every_module_has_docstring():
    missing = [m.__name__ for m in iter_modules() if not (m.__doc__ or "").strip()]
    assert missing == [], f"modules without docstrings: {missing}"


def test_every_public_class_has_docstring():
    missing = []
    for module in iter_modules():
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isclass(obj):
                continue
            if obj.__module__ != module.__name__:
                continue  # re-export
            if not (obj.__doc__ or "").strip():
                missing.append(f"{module.__name__}.{name}")
    assert missing == [], f"classes without docstrings: {missing}"


def test_services_package_exports_every_daemon():
    """Any ACEDaemon subclass defined under repro.services must be exported
    from the package root (the public API surface)."""
    from repro.core.daemon import ACEDaemon
    import repro.services as services

    unexported = []
    for module in iter_modules():
        if not module.__name__.startswith("repro.services."):
            continue
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and issubclass(obj, ACEDaemon)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                if name not in services.__all__:
                    unexported.append(f"{module.__name__}.{name}")
    assert unexported == [], f"daemons missing from repro.services: {unexported}"


def test_every_handler_has_declared_semantics():
    """cmd_<name> handlers must have a matching semantics definition —
    otherwise the command is unreachable (the daemon's parser rejects it).
    Instantiation-free check via build_semantics on a dummy instance."""
    from repro.core.daemon import ACEDaemon
    from repro.env import ACEEnvironment
    import repro.services as services

    env = ACEEnvironment(seed=999)
    host = env.add_host("probe")
    problems = []
    for name in services.__all__:
        obj = getattr(services, name)
        if not (inspect.isclass(obj) and issubclass(obj, ACEDaemon)):
            continue
        try:
            daemon = obj(env.ctx, f"probe.{name}", host)
        except TypeError:
            continue  # requires extra constructor args; skip
        for attr in dir(daemon):
            if attr.startswith("cmd_"):
                command_name = attr[len("cmd_"):]
                if command_name not in daemon.semantics:
                    problems.append(f"{name}.{attr}")
    assert problems == [], f"handlers without semantics: {problems}"


def test_every_declared_command_has_handler_or_builtin():
    """The converse: declared commands must be executable."""
    from repro.core.daemon import ACEDaemon
    from repro.env import ACEEnvironment
    import repro.services as services

    builtins = {"ping", "listCommands", "getInfo", "attach",
                "addNotification", "removeNotification"}
    env = ACEEnvironment(seed=998)
    host = env.add_host("probe")
    problems = []
    for name in services.__all__:
        obj = getattr(services, name)
        if not (inspect.isclass(obj) and issubclass(obj, ACEDaemon)):
            continue
        try:
            daemon = obj(env.ctx, f"probe.{name}", host)
        except TypeError:
            continue
        for command_name in daemon.semantics.commands():
            if command_name in builtins:
                continue
            if not hasattr(daemon, f"cmd_{command_name}"):
                problems.append(f"{name}: {command_name}")
    assert problems == [], f"declared commands without handlers: {problems}"


def test_every_defined_command_has_a_sender():
    """A daemon's vocabulary is what the system sends (Fig. 5 / §2.2):
    every name ``sem.define``\\ d under ``src/`` appears as a string
    constant under ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``
    somewhere other than a ``define`` or a docstring.  A command nothing
    sends is deleted, or given a test that sends it."""
    def defined_name(node):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "define" and node.args
                and isinstance(node.args[0], ast.Constant)):
            return node.args[0]
        return None

    defined, sent = {}, set()
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((REPO / top).rglob("*.py")):
            if path == Path(__file__):
                continue
            tree = ast.parse(path.read_text())
            skip = {id(node.body[0].value) for node in ast.walk(tree)
                    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None}
            for node in ast.walk(tree):
                name = defined_name(node)
                if name is not None:
                    skip.add(id(name))
                    if top == "src":
                        defined.setdefault(name.value, f"{path.relative_to(REPO)}:{node.lineno}")
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and id(node) not in skip):
                    sent.add(node.value)
    unsent = sorted(f"{where}: {name}" for name, where in defined.items() if name not in sent)
    assert unsent == [], "defined commands nothing sends:\n" + "\n".join(unsent)


def test_service_client_surface_is_exactly_this():
    """One way to send a command to an address (``call``); the transport is
    chosen by the object the caller holds — ``client``, ``client.pool``, a
    connection from ``connect`` — not by a method name.  A new public
    method here needs a reason, and this list."""
    from repro.core import ServiceClient

    public = {name for name in vars(ServiceClient) if not name.startswith("_")}
    assert public == {
        "connect", "call", "pool", "close_channels",
        "current_span", "begin_trace", "end_trace",
    }


RETIRED_NAMES = frozenset({
    "call_once", "call_pooled", "call_pipelined", "call_failover",
    "call_resilient", "batch_lease_renewals", "obs_export", "authdb_lookup",
    "AppHandle", "jini_discover", "rmi_roundtrip_size", "secure_pair",
    "_REPL_ERRORS", "_store_errors", "NetLoggerExporter", "span_from_wire",
    "SPAN_EVENT", "METRICS_EVENT", "on_finish",
    "MobileServiceConnection", "NoInstanceAvailable", "asd_lookup_one",
    "_apply_entry", "_index_add", "_index_remove", "cmd_psReplicate",
    "newer_than", "replicate_writes", "forward_misrouted", "digest_buckets",
    "run_once", "_check_against_baseline",
    "store_addresses", "_store_shard_map", "_store_route", "_store_topology",
    "_store_group_addresses", "_refresh_store_topology", "_refresh_topology",
    "group_addresses", "install_shard_map", "moved_paths",
    "persist", "auto_open_workspace", "auto_answer", "client_monitors",
    "PriorityStore", "Container",
    "cmd_getLastSeen", "cmd_getManaged", "cmd_refresh", "cmd_listGestures",
    "cmd_listPrincipals", "cmd_revokeCredentials", "cmd_obsSummary",
    "cmd_removeService", "cmd_speakWord", "cmd_speakNoise", "cmd_stopCapture",
    "resize_connection_pools", "pool_max_idle", "_connection_pools",
    "invalidate_all", "checkpoint_eager", "_commit_barrier", "_checkpoint_now",
    "_span_stack", "_notify_client", "_notification_client", "_repl_client",
    "_replication_client", "_scrape_client", "_dial_call_close",
    "_find_daemon", "cmd_obsScrape", "_scrape_loop", "stale_factor",
    "last_push",
    "PipelinedConnection", "PIPELINE_SEQ_ARG", "_pipelined_reply", "_tag_reply",
    "max_inflight", "o_seq", "dedup_window",
    "AnyOf", "any_of", "_Condition",
    "_parse_fast", "parse_command_full", "_from_wire", "CommandParser",
    "_safe_send", "_note_busy_start", "_note_busy_end", "_path_latency", "_account",
    "_arrive_stream", "_transmit_delay", "_flat_view", "_flat_valid", "_invalidate_flat",
})

#: deleted methods whose names other classes still define
RETIRED_METHODS = {
    ("repro.core.client", "ConnectionPool"): {"resize"},
    ("repro.core.client", "ServiceClient"): {"__enter__", "__exit__"},
    ("repro.env.users", "UserIdentity"): {"principal"},
    ("repro.lang.semantics", "CommandSpec"): {"arg"},
    ("repro.metrics", "ResultTable"): {"show"},
    ("repro.net.secure", "SecureChannel"): {"local"},
    ("repro.net.sockets", "Connection"): {"try_recv"},
    ("repro.obs", "Observability"): {"enabled"},
    ("repro.obs.cluster.slo", "SLOEngine"): {"specs"},
    ("repro.obs.cluster.slo", "SLOSpec"): {"matches"},
    ("repro.obs.cluster.snapshot", "ClusterSnapshot"): {"get"},
    ("repro.obs.tracer", "CriticalHop"): {"share"},
    ("repro.obs.tracer", "Tracer"): {"clear"},
    ("repro.recovery.supervisor", "SupervisorDaemon"): {"stop", "on_restart"},
    ("repro.security.keynote", "Assertion"): {"wire_size"},
    ("repro.security.keynote", "ComplianceValue"): {"minimum", "maximum"},
    ("repro.security.keynote", "LicAnd"): {"principals"},
    ("repro.security.keynote", "LicOr"): {"principals"},
    ("repro.security.keynote", "LicPrincipal"): {"principals"},
    ("repro.security.keynote", "LicThreshold"): {"principals"},
    ("repro.sim.kernel", "AllOf"): {"_observe", "_finalize_if_done", "results"},
    ("repro.sim.kernel", "Process"): {"_step"},
    ("repro.sim.kernel", "Timeout"): {"__init__"},
    ("repro.sim.resources", "Request"): {"release"},
}


def _spellings(names, tops):
    """``file:line: name`` for every attribute, name, keyword or definition
    under the directories ``tops`` that spells one of ``names``."""
    found = []
    for top in tops:
        for path in sorted((REPO / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                for field in ("attr", "id", "arg", "name"):
                    if getattr(node, field, None) in names:
                        found.append(f"{path.relative_to(REPO)}:{node.lineno}: "
                                     f"{getattr(node, field)}")
    return found


def test_retired_names_stay_retired():
    """No attribute, name, keyword or definition under ``src/``,
    ``examples/`` or ``benchmarks/`` spells a retired call method or option
    (EXPERIMENTS.md §Retired controls)."""
    from repro.lang import CommandSemantics

    found = _spellings(RETIRED_NAMES, ("src", "examples", "benchmarks"))
    assert found == [], "retired names in use:\n" + "\n".join(found)
    for (module, cls), names in RETIRED_METHODS.items():
        assert not names & set(vars(getattr(importlib.import_module(module), cls))), cls
    # never passed, never read
    assert "notification" not in inspect.signature(CommandSemantics.define).parameters
    # a pending event is one whose ``_ok`` is None; nothing is scheduled twice
    from repro.sim.kernel import Event
    assert not {"_triggered", "_scheduled"} & set(Event.__slots__)


def test_the_store_has_one_route():
    """``ctx.store_route`` is the only place a store client or daemon
    learns the shard map and the groups: neither takes them as options,
    and no module outside the environment reads a private ``_store_*``
    name of it."""
    from repro.store import PersistentStoreDaemon, StoreClient

    retired = {"shard_map", "groups", "group_addresses", "topology_provider"}
    for cls in (StoreClient, PersistentStoreDaemon):
        assert not retired & set(inspect.signature(cls).parameters), cls.__name__
    found = [
        f"{path.relative_to(REPO)}:{node.lineno}: {node.attr}"
        for path in sorted((REPO / "src").rglob("*.py"))
        if path != REPO / "src/repro/env/environment.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_store_")
        and getattr(node.value, "id", None) != "self"
        # the telemetry snapshot names each group's daemons
        and node.attr != "_store_groups"
    ]
    assert found == [], "private store names read outside the environment:\n" + "\n".join(found)


#: the per-plane hooks the environment's list of planes replaced
RETIRED_HOOKS = frozenset({
    "_supervise_if_enabled", "_publish_host_if_telemetry", "_supervise",
    "_publish_host",
})

#: plane options that were constants in every caller (EXPERIMENTS.md
#: §Retired controls)
RETIRED_PLANE_KEYWORDS = {
    "enable_supervision": {
        "checkpoint_to_store", "negative_ttl", "idempotent_retries", "exclude",
        "include"},
    "enable_telemetry": {"jitter", "slos", "aggregator_host", "port"},
    "enable_autoscaling": {
        "host", "max_store_groups", "max_asd_replicas", "max_pool",
        "daemon_kwargs"},
}


def test_a_daemon_joins_leaves_and_comes_back_one_way():
    """The second path does not grow back: planes are reached only inside
    ``add_daemon``, left only through ``remove_daemon``, a store group is
    built in one place, and ``respawn`` needs no per-subclass list."""
    from repro.env import ACEEnvironment

    found = _spellings(RETIRED_HOOKS, ("src", "tests", "benchmarks", "examples"))
    assert found == [], "per-plane hooks in use:\n" + "\n".join(found)

    src = REPO / "src"
    for module, daemon_class in (
            ("repro/recovery/supervisor.py", "SupervisorDaemon"),
            ("repro/obs/cluster/publisher.py", "TelemetryPublisherDaemon"),
            ("repro/env/environment.py", "PersistentStoreDaemon")):
        built = [path for path in src.rglob("*.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == daemon_class]
        assert [str(path.relative_to(src)) for path in built] == [module], daemon_class

    def drops_a_scope(function):
        return any(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and getattr(node.func.value, "attr", None) == "telemetry_scopes"
            for node in ast.walk(function))

    assert {(str(path.relative_to(src)), node.name)
            for path in src.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and drops_a_scope(node)} \
        == {("repro/obs/cluster/publisher.py", "detach")}

    assert {str(path.relative_to(src)) for path in src.rglob("*.py")
            if any(isinstance(node, ast.FunctionDef)
                   and node.name == "_respawn_kwargs"
                   for node in ast.walk(ast.parse(path.read_text())))} \
        == {"repro/core/daemon.py", "repro/store/server.py"}

    for method, retired in RETIRED_PLANE_KEYWORDS.items():
        parameters = inspect.signature(getattr(ACEEnvironment, method)).parameters
        assert not retired & set(parameters), method


def test_no_lifecycle_method_names_a_plane():
    """The environment's lifecycle loops over its list of planes: no
    method a daemon joins, boots, leaves or comes back through names a
    plane's daemon or the index a plane keeps."""
    tree = ast.parse((REPO / "src/repro/env/environment.py").read_text())
    lifecycle = {"add_daemon", "remove_daemon", "boot", "boot_async",
                 "_adopt_restart"}
    plane_names = {"SupervisorDaemon", "TelemetryPublisherDaemon",
                   "supervisors", "telemetry_scopes"}
    found = sorted(
        f"{function.name}:{node.lineno}: {getattr(node, field)}"
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name in lifecycle
        for node in ast.walk(function)
        for field in ("attr", "id")
        if getattr(node, field, None) in plane_names)
    assert found == [], "lifecycle methods name a plane:\n" + "\n".join(found)


def test_a_process_dies_one_way():
    """A host's crash kills what runs on it, so no code outside ``net/``
    reads ``self.host.up`` to guess whether it is a zombie, and only
    ``Host.crash``, the fault controller and the supervision plane (ending
    a supervisor left with no ward) call a resident's ``kill()``."""
    src = REPO / "src/repro"
    guards, killers = [], set()
    for path in sorted(src.rglob("*.py")):
        where = str(path.relative_to(src))
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "up"
                    and getattr(node.value, "attr", None) == "host"
                    and getattr(node.value.value, "id", None) == "self"
                    and not where.startswith("net/")):
                guards.append(f"{where}:{node.lineno}")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "kill"):
                killers.add(where)
    assert guards == [], "zombie guards: " + ", ".join(guards)
    assert killers == {"net/host.py", "faults/controller.py",
                       "recovery/supervisor.py"}
    # a kill fault names its daemon; the controller does the rest
    from repro.faults import FaultPlan
    assert list(inspect.signature(FaultPlan.kill_daemon).parameters) == ["self", "name", "at"]


#: the seven hand-rolled subscribers `watch()` / `ClassWatch` replaced
RETIRED_LISTENER_PLUMBING = frozenset({
    "_subscribed", "_watched_hals", "_subscribe_once", "_subscribe_all",
    "_initial_subscribe", "_subscribe_device", "_subscribe_hal",
    "_subscribe_room_devices", "_watch_asd", "_watch_registrations",
    "_parse_event",
})


def test_fig8_has_one_listener():
    """Under ``src/`` one place builds an ``addNotification`` command
    (``watch``), one declares what a callback receives (``CALLBACK_ARGS``;
    ``dirChanged`` keeps its stricter spec) and one reads the forwarded
    payload (``notification_event``): a listener is a declaration."""
    found = _spellings(RETIRED_LISTENER_PLUMBING, ("src",))
    assert found == [], "hand-rolled listener plumbing:\n" + "\n".join(found)

    def calls(tree, callee):
        return [node for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == callee]

    def first_arg(call):
        return call.args[0].value if call.args and isinstance(call.args[0], ast.Constant) else None

    src = REPO / "src"
    subscribers, trigger_specs, parsing_callbacks = [], set(), []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        where = str(path.relative_to(src))
        subscribers += [where for call in calls(tree, "ACECmdLine")
                        if first_arg(call) == "addNotification"]
        if any(first_arg(call) == "trigger" for call in calls(tree, "ArgSpec")):
            trigger_specs.add(where)
        parsing_callbacks += [
            f"{where}: {node.name}" for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_on")
            and calls(node, "parse_command")]
    assert subscribers == ["repro/core/notifications.py"]
    assert trigger_specs == {"repro/core/notifications.py", "repro/services/asd.py"}
    assert parsing_callbacks == []


def test_one_replicated_map():
    """The directory and the store keep their copies in step with one
    table, one intake and one repair loop (``core/replication.py``): the
    LWW comparison, ``_anti_entropy_loop`` and ``_sync_with`` are written
    once, and the per-object push and the options nobody set stay gone."""
    from repro.core.replication import ReplicaMixin, ReplicatedMap
    from repro.services.asd import ServiceDirectoryDaemon
    from repro.store import ObjectNamespace, PersistentStoreDaemon

    def lww_comparison(node):
        return (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.GtE)
                and getattr(node.left, "attr", None) == "version")

    src = REPO / "src"
    written = {"_anti_entropy_loop": [], "_sync_with": [], ".version >=": []}
    declared = []
    for path in sorted(src.rglob("*.py")):
        where = str(path.relative_to(src))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in written:
                written[node.name].append(where)
            if lww_comparison(node):
                written[".version >="].append(where)
            if isinstance(node, ast.Constant) and node.value == "psReplicate":
                declared.append(where)
    for what, where in written.items():
        assert where == ["repro/core/replication.py"], what
    assert declared == []

    for daemon in (ServiceDirectoryDaemon, PersistentStoreDaemon):
        assert issubclass(daemon, ReplicaMixin)
        for shared in ("_anti_entropy_loop", "_sync_with", "_take", "_fetch_reply",
                       "_push_to_peer"):
            assert shared not in vars(daemon), f"{daemon.__name__}.{shared}"
    assert issubclass(ObjectNamespace, ReplicatedMap)
    # the pipeline's tag counter in core/client.py is a live ``_next_seq``,
    # so the directory's retired one is checked here, not by spelling
    assert not hasattr(ServiceDirectoryDaemon, "_next_seq")
    keywords = set(inspect.signature(PersistentStoreDaemon.__init__).parameters)
    assert not keywords & {"replicate_writes", "forward_misrouted", "digest_buckets"}


#: what ``repro.net`` raises; ``core/client.py`` turns each into a
#: ``TransportError``, so only code holding a raw socket may name them
SOCKET_ERRORS = frozenset({"ConnectionClosed", "ConnectionRefused", "HandshakeError"})
RAW_SOCKET_CODE = ("repro/net/", "repro/core/client.py", "repro/core/daemon.py",
                   "repro/baselines/rmi.py", "repro/baselines/jini.py")


def test_a_call_fails_one_way():
    """``CallError`` is the only exception a ``ServiceClient`` caller
    handles: no ``except`` clause, ``isinstance`` tuple or named error tuple
    lists one of its family beside a socket-layer exception, and under
    ``src/`` only raw-socket code spells the socket layer's names at all."""
    import repro.store  # noqa: F401  (StoreUnavailable joins the family)
    from repro.core import CallError

    family, pending = set(), [CallError]
    while pending:
        cls = pending.pop()
        family.add(cls.__name__)
        pending += cls.__subclasses__()
    assert {"TransportError", "StoreUnavailable"} <= family

    def spelled(node):
        return {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
                for n in ast.walk(node)}

    mixed, holders = [], set()
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((REPO / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            where = str(path.relative_to(REPO / top))
            for node in ast.walk(tree):
                if isinstance(node, ast.Tuple):
                    names = spelled(node)
                    if names & family and names & SOCKET_ERRORS:
                        mixed.append(f"{top}/{where}:{node.lineno}")
            if top == "src" and spelled(tree) & SOCKET_ERRORS:
                holders.add(where)
    assert mixed == [], "CallError beside a socket error:\n" + "\n".join(mixed)
    stray = sorted(w for w in holders if not w.startswith(RAW_SOCKET_CODE))
    assert stray == [], f"socket-layer exceptions named outside raw-socket code: {stray}"


#: the two functions that hold a looked-up address for a reason: two calls
#: to one WSS, and HALs filtered by host after the lookup
FIRST_ADDRESS_HOLDERS = {
    "repro/services/idmon.py:_open_workspace", "repro/services/wss.py:cmd_openWorkspace",
}


def test_find_then_call_is_written_once():
    """Fig. 7's find-then-call lives in ``client.call(Service(...), ...)``:
    no other function under ``src/`` takes ``<records>[0].address``, and
    ``repro.core`` imports nothing from ``repro.services`` at module level."""
    import repro.services

    def first_address(node):
        return (isinstance(node, ast.Attribute) and node.attr == "address"
                and isinstance(node.value, ast.Subscript)
                and isinstance(node.value.slice, ast.Constant)
                and node.value.slice.value == 0)

    holders, upward = set(), []
    for path in sorted((REPO / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        where = str(path.relative_to(REPO / "src"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(first_address(node) for node in ast.walk(function)):
                    holders.add(f"{where}:{function.name}")
        if where.startswith("repro/core/"):
            upward += [
                f"{where}:{node.lineno}" for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and any(name.startswith("repro.services") for name in
                        [getattr(node, "module", None) or ""] + [a.name for a in node.names])]
    assert holders == FIRST_ADDRESS_HOLDERS
    assert upward == [], f"repro.core imports repro.services at module level: {upward}"
    assert not RETIRED_NAMES & set(repro.services.__all__)


def test_benchmarks_record_once():
    """``benchmarks/conftest.py`` holds the one baseline guard and the one
    artifact writer (``_check_against_baseline`` is a retired name): no
    other file under ``benchmarks/`` names a baseline path or dumps JSON, the retired artifact-directory variables are gone
    from the repo, and an experiment file reads the environment only for
    ``ACE_BENCH_SHORT``."""
    def reads_short(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and getattr(node.func.value, "attr", None) == "environ"
                and [getattr(a, "value", None) for a in node.args] == ["ACE_BENCH_SHORT"])

    strays = []
    for path in sorted((REPO / "benchmarks").glob("bench_*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        strays += [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in nodes
                   if getattr(node, "id", None) == "BASELINE_PATH"
                   or (isinstance(node, ast.Attribute) and node.attr == "dump"
                       and getattr(node.value, "id", None) == "json")]
        environ = sum(getattr(node, "attr", None) == "environ" for node in nodes)
        if environ != sum(map(reads_short, nodes)):
            strays.append(f"{path.name}: reads os.environ beyond ACE_BENCH_SHORT")
    assert strays == [], "guard code outside benchmarks/conftest.py:\n" + "\n".join(strays)

    retired = ("ACE_OBS_" + "ARTIFACT_DIR", "ACE_DIR_" + "ARTIFACT_DIR")
    files = [path for top in ("src", "benchmarks", "bench", "examples", "tests", ".github")
             for path in (REPO / top).rglob("*") if path.suffix in (".py", ".yml", ".md")]
    files += [REPO / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md")]
    spelled = sorted(str(path.relative_to(REPO)) for path in files
                     if any(name in path.read_text() for name in retired))
    assert spelled == [], f"retired artifact-directory variables in: {spelled}"


def test_a_hop_parses_nothing():
    """A command crosses a link as the object it is: nothing under
    ``repro/core/`` hands ``send`` a ``.to_string()``, and
    the client and daemon name ``parse_command`` only in the one receive
    helper (text from an SSL record or a hand-written notice) and in
    ``import_dedup`` (checkpoint lines).  Between shards a command is
    pickled as its name and arguments: neither ``__reduce__`` nor
    ``_unpickle`` prints or parses it."""
    from repro.lang import command as command_module

    def encodes(call):
        return any(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "to_string"
                   for arg in call.args for node in ast.walk(arg))

    core = REPO / "src/repro/core"
    sends, parsers = [], set()
    for path in sorted(core.rglob("*.py")):
        tree = ast.parse(path.read_text())
        where = str(path.relative_to(core))
        sends += [f"{where}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None))
                  == "send" and encodes(node)]
        if where in ("client.py", "daemon.py"):
            for function in ast.walk(tree):
                if isinstance(function, ast.FunctionDef) and any(
                        isinstance(node, ast.Name) and node.id == "parse_command"
                        for node in ast.walk(function)):
                    parsers.add(f"{where}:{function.name}")
    assert sends == [], "a send encodes its command:\n" + "\n".join(sends)
    assert parsers == {"client.py:received_command", "daemon.py:import_dedup"}
    for function in (command_module.ACECmdLine.__reduce__, command_module._unpickle):
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        named = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)}
        assert not named & {"to_string", "parse_command"}, function.__qualname__


#: the functions under ``src/`` that open a channel of their own with
#: ``ServiceClient.connect``: the pool, a multi-exchange anti-entropy
#: session, the held sessions, and the two ablation baselines
#: that model dialling on purpose (E21's naive client, open-loop arrivals)
CONNECT_CALLERS = {
    "repro/core/client.py:ConnectionPool.acquire",
    "repro/core/client.py:ConnectionPool.call",
    "repro/core/replication.py:ReplicaMixin._sync_with",
    "repro/apps/controlgui.py:ACEControlGUI.select",
    "repro/apps/vnc.py:VNCViewer.attach",
    "repro/env/scenarios.py:scenario_5_devices",
    "repro/workloads/clients.py:closed_loop_clients.one_client",
    "repro/workloads/chaos.py:run_chaos_workload.one_call",
    "repro/workloads/clients.py:open_loop_arrivals.one_shot",
}


def test_nothing_under_src_dials_per_command():
    """A call to an address has one path, the client's pool under a
    deadline (``_dial_call_close`` and ``ServiceClient.__enter__`` are
    retired): under ``src/`` only :data:`CONNECT_CALLERS` dial with
    ``ServiceClient.connect`` — a ``net.connect`` is the transport's own."""
    def callers(node, where, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from callers(child, where, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "connect":
                receiver = ast.unparse(child.func.value)
                if not (receiver.endswith("net") or receiver == "super()"):
                    yield f"{where}:{'.'.join(scope)}"
            yield from callers(child, where, scope)

    found = set()
    for path in sorted((REPO / "src").rglob("*.py")):
        found |= set(callers(ast.parse(path.read_text()), str(path.relative_to(REPO / "src")), []))
    assert found == CONNECT_CALLERS
    client = ast.parse((REPO / "src/repro/core/client.py").read_text())
    assert not [node for node in ast.walk(client) if isinstance(node, ast.Compare)
                and getattr(node.left, "id", None) == "policy"], "a path chosen by policy"


def test_a_daemon_makes_its_client_in_one_place():
    """A daemon holds one client for its incarnation: nothing under ``src/``
    names the per-flow ``_service_client``, and the one ``ServiceClient(...)``
    that an ``ACEDaemon`` subclass — or a class one inherits from — builds
    is ``ACEDaemon.client``'s."""
    from repro.core.daemon import ACEDaemon

    assert _spellings({"_service_client"}, ("src",)) == []
    classes = {klass for module in iter_modules() for daemon in vars(module).values()
               if inspect.isclass(daemon) and issubclass(daemon, ACEDaemon)
               for klass in daemon.__mro__ if klass.__module__.startswith("repro.")}
    makers = set()
    for klass in classes:
        tree = ast.parse(textwrap.dedent(inspect.getsource(klass)))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ServiceClient"
                    for node in ast.walk(function)):
                makers.add(f"{klass.__qualname__}.{function.name}")
    assert makers == {"ACEDaemon.client"}


def test_numpy_is_the_only_runtime_dependency():
    """``pyproject.toml`` declares numpy alone, so the package must import
    with nothing else installed: here, with scipy made unimportable."""
    code = "import sys; sys.modules['scipy'] = None; import repro.env"
    result = subprocess.run([sys.executable, "-c", code], cwd=REPO, capture_output=True,
                            text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert result.returncode == 0, result.stderr


def test_src_never_drives_the_collector():
    """Nothing under ``src/`` imports or names ``gc``: a run's collector
    time comes down by allocating fewer tracked objects (finished spans
    are columns, EXPERIMENTS.md "E22 follow-up"), never by switching the
    collector off or tuning its thresholds."""
    found = _spellings({"gc"}, ("src",))
    for path in sorted((REPO / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gc":
                found.append(f"{path.relative_to(REPO)}:{node.lineno}: from gc")
    assert found == [], "src/ drives the collector:\n" + "\n".join(found)
