"""Per-layer attribution for the traced repetition.

Two instruments, both switched on from the benchmark's own files:

* ``cProfile`` around the timed section.  Every profiled function's self
  time (``tottime``) and call count are summed by the ``repro.<package>``
  its file lives in -- "self time = span minus children" at layer
  granularity.  Shards of a sharded run are profiled inside their own
  processes (:func:`shard_trace_on` / :func:`shard_trace_off`).
* plain counting wrappers at four layer boundaries, because cProfile counts
  every generator resume as a call and so cannot give invocation counts for
  generator functions.
"""

from __future__ import annotations

import cProfile
import sys
from typing import Any, Dict, List, Tuple

#: layer names are the ``src/repro`` packages; ``other`` is every repro
#: package not named here (env, security, metrics, ...), ``python`` is the
#: interpreter: builtins, C calls, the standard library and bench's own loop
LAYERS: Tuple[str, ...] = (
    "sim", "sim.parallel", "net", "lang", "core", "services", "store",
    "obs", "recovery", "workloads", "other", "python",
)
_PACKAGES = frozenset(LAYERS) - {"sim.parallel", "other", "python"}

#: the boundary invocation counts
BOUNDARIES: Tuple[str, ...] = ("connects", "parses", "serializes", "dispatches")

#: builtins a process sits in while it waits on a shard pipe.  Waiting is
#: not work: it is kept out of every layer and reported as ``wait_s`` (the
#: untraced ``sim.parallel.blocked_share`` measures the same thing).
_WAITS = frozenset({
    "<built-in method posix.read>",
    "<method 'poll' of 'select.poll' objects>",
})
#: builtins that are a shard pipe's pickling and writing: only
#: ``sim.parallel`` pickles or writes anything during a timed section
_PIPE_WORK = frozenset({
    "<built-in method posix.write>",
    "<built-in method _pickle.loads>",
    "<method 'dump' of '_pickle.Pickler' objects>",
})


def layer_of(filename: str) -> str:
    """The layer a profiled function's file belongs to."""
    path = filename.replace("\\", "/")
    _, sep, rest = path.rpartition("/repro/")
    if sep:
        if rest.startswith("sim/parallel/"):
            return "sim.parallel"
        package = rest.split("/", 1)[0]
        return package if package in _PACKAGES else "other"
    if "/multiprocessing/" in path:
        return "sim.parallel"  # shard pipes are its only user here
    return "python"


def new_table() -> Dict[str, Any]:
    """An empty attribution table: ``layer -> [self seconds, calls]``,
    the waiting kept out of the layers, cProfile's own total, and the
    boundary invocation counts."""
    table: Dict[str, Any] = {layer: [0.0, 0] for layer in LAYERS}
    table["wait_s"] = 0.0
    table["total_s"] = 0.0
    table["boundaries"] = dict.fromkeys(BOUNDARIES, 0)
    return table


def merge_tables(tables: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the tables of the processes of one run."""
    out = new_table()
    for table in tables:
        for layer in LAYERS:
            out[layer][0] += table[layer][0]
            out[layer][1] += table[layer][1]
        out["wait_s"] += table["wait_s"]
        out["total_s"] += table["total_s"]
        for key in BOUNDARIES:
            out["boundaries"][key] += table["boundaries"][key]
    return out


class Trace:
    """The traced repetition's instruments for one process.

    ``net`` is the environment's network, or ``None`` in a process that
    only coordinates shards (profiled, but no boundary lives there).
    """

    def __init__(self, net=None) -> None:
        self._net = net
        self._profiler = cProfile.Profile()
        self._counts = dict.fromkeys(BOUNDARIES, 0)
        self._patched: List[Tuple[Any, str, Any]] = []

    def _count(self, owner: Any, attr: str, key: str) -> None:
        original = getattr(owner, attr)
        counts = self._counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _install_counters(self) -> None:
        from repro.core.daemon import ACEDaemon
        from repro.lang import ACECmdLine
        from repro.lang.parser import parse_command

        # The network's own class: a boundary fabric that defers to the
        # plain one is then counted once.
        self._count(type(self._net), "connect", "connects")
        self._count(ACECmdLine, "to_string", "serializes")
        self._count(ACEDaemon, "_execute", "dispatches")
        # parse_command is imported by name all over repro, so every
        # module-level reference to it is swapped.
        for name, module in list(sys.modules.items()):
            if name.split(".", 1)[0] == "repro" and \
                    getattr(module, "parse_command", None) is parse_command:
                self._count(module, "parse_command", "parses")

    def start(self) -> None:
        if self._net is not None:
            self._install_counters()
        self._profiler.enable()

    def pause(self) -> None:
        """Stop profiling while the runner calibrates the host."""
        self._profiler.disable()

    def resume(self) -> None:
        self._profiler.enable()

    def stop(self) -> Dict[str, Any]:
        """Switch everything off; returns this process's table, with every
        profiled function assigned to exactly one layer or to ``wait_s``."""
        self._profiler.disable()
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        table = new_table()
        table["boundaries"].update(self._counts)
        for entry in self._profiler.getstats():
            code = entry.code
            table["total_s"] += entry.inlinetime
            if isinstance(code, str):  # a builtin or C function
                if code in _WAITS:
                    table["wait_s"] += entry.inlinetime
                    continue
                layer = "sim.parallel" if code in _PIPE_WORK else "python"
            else:
                layer = layer_of(code.co_filename)
            table[layer][0] += entry.inlinetime
            table[layer][1] += entry.callcount
        return table


def shard_trace_on(env, ctx) -> None:
    """``ShardedSimulator.spawn`` target: start tracing inside a shard."""
    env.bench_trace = Trace(env.net)
    env.bench_trace.start()


def shard_trace_off(env, ctx) -> Dict[str, Any]:
    """``ShardedSimulator.collect`` target: stop it, return the table."""
    return env.bench_trace.stop()
