"""Meta-tests enforcing the documentation/API discipline of deliverable (e):
every public module and class carries a docstring; every daemon's command
vocabulary is fully declared in its semantics.
"""

import ast
import importlib
import inspect
import pkgutil
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


def test_service_client_surface_is_exactly_this():
    """One way to send a command to an address (``call``); the transport is
    chosen by the object the caller holds — ``client``, ``client.pool``, a
    pipe from ``pipelined``, a connection from ``connect`` — not by a
    method name.  A new public method here needs a reason, and this list."""
    from repro.core import ServiceClient

    public = {name for name in vars(ServiceClient) if not name.startswith("_")}
    assert public == {
        "connect", "call", "pool", "pipelined", "close_channels",
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
})


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
    # never passed, never read
    assert "notification" not in inspect.signature(CommandSemantics.define).parameters


#: the late-join hooks `add_daemon` replaced
RETIRED_HOOKS = frozenset({"_supervise_if_enabled", "_publish_host_if_telemetry"})

#: plane options that were constants in every caller (EXPERIMENTS.md
#: §Retired controls)
RETIRED_PLANE_KEYWORDS = {
    "enable_supervision": {
        "checkpoint_to_store", "negative_ttl", "idempotent_retries", "exclude"},
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
    assert found == [], "late-join hooks in use:\n" + "\n".join(found)

    tree = ast.parse((REPO / "src/repro/env/environment.py").read_text())
    built = [node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    for daemon_class in ("SupervisorDaemon", "TelemetryPublisherDaemon",
                         "PersistentStoreDaemon"):
        assert built.count(daemon_class) == 1, daemon_class

    def drops_a_scope(function):
        return any(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and getattr(node.func.value, "attr", None) == "telemetry_scopes"
            for node in ast.walk(function))

    assert {node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and drops_a_scope(node)} \
        == {"remove_daemon"}

    src = REPO / "src"
    assert {str(path.relative_to(src)) for path in src.rglob("*.py")
            if any(isinstance(node, ast.FunctionDef)
                   and node.name == "_respawn_kwargs"
                   for node in ast.walk(ast.parse(path.read_text())))} \
        == {"repro/core/daemon.py", "repro/store/server.py"}

    for method, retired in RETIRED_PLANE_KEYWORDS.items():
        parameters = inspect.signature(getattr(ACEEnvironment, method)).parameters
        assert not retired & set(parameters), method


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
