"""Per-shard runtime: the message loop that drives one kernel shard.

Each shard — whether it lives in its own OS process or in-process for
tests — is a :class:`ShardServer` answering a tiny request/reply protocol
from the coordinator (:class:`~repro.sim.parallel.sharded.ShardedSimulator`):

=============  =====================================================
``build``      run the topology builder, report lookahead row + next event
``boot``       start ``env.boot_async(settle)`` as a kernel process
``spawn``      call a module-level ``fn(env, ctx, *args, **kwargs)``
``window``     inject boundary messages, run events strictly before W,
               drain the outbox, report next event time
``advance``    ``sim.run(until=t)`` — clock catch-up, queues already dry
``collect``    call ``fn(env, ctx, ...)`` and return its (picklable) result
``counters``   kernel counters + sync/boundary/cpu telemetry
``trace``      the shard-local trace log
``stop``       exit the loop
=============  =====================================================

Requests and replies are plain picklable tuples: ``("verb", *payload)``
in, ``("ok", result)`` or ``("error", traceback_text)`` out.  ``spawn``/
``collect`` functions must be module-level (they cross a pickle
boundary in process mode).

A shard process sleeps on its pipe between requests, with one exception:
when every shard has a core of its own it polls the pipe for a while after
answering a ``window`` (see :data:`GRANT_POLL_S`), because in a run the
next grant is a peer's window away and waking an idle core costs more than
that.
"""

from __future__ import annotations

import os
import select
import time
import traceback
from typing import Any, Callable, Dict, Optional, Tuple

from repro.net.boundary import BoundaryNetwork
from repro.sim.parallel.context import ShardContext


#: host seconds a shard with a core to itself keeps polling its pipe for the
#: next grant after it answered a window, before it sleeps on the pipe.  In a
#: run the next grant follows within a peer's window, a few hundred
#: microseconds; a core that goes idle in between is woken once per grant,
#: and on a shared host every such wake-up goes through the hypervisor's
#: scheduler, which takes milliseconds whenever the host is busy (measured
#: on the 2-vCPU sizing box: a 2-shard campus run 2-3x slower in those
#: phases, unchanged with polling).  ``advance`` ends every ``run()``, so a
#: shard never polls while the coordinator is doing something else.
GRANT_POLL_S = 0.02


def _poll_for_request(poller, budget_s: float) -> None:
    """Return once ``poller`` (a ``select.poll`` watching the shard's pipe)
    reports a request or ``budget_s`` host seconds passed, offering the
    core to any other runnable process on every turn."""
    deadline = time.perf_counter() + budget_s
    while not poller.poll(0):
        if time.perf_counter() >= deadline:
            return
        os.sched_yield()


def _maxrss_kb() -> int:
    """Peak RSS of this shard process in KiB (0 where unsupported).

    Linux reports ``ru_maxrss`` in KiB, macOS in bytes — normalized here
    so the 100k-user memory telemetry reads the same everywhere.
    """
    try:
        import resource
        import sys
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(rss // 1024) if sys.platform == "darwin" else int(rss)
    except Exception:  # pragma: no cover - non-POSIX
        return 0


class ShardServer:
    """Owns one environment + kernel and executes coordinator requests."""

    def __init__(self, index: int, n_shards: int,
                 builder: Callable[[ShardContext], Any],
                 host_to_shard: Optional[Callable[[str], int]] = None,
                 seed: int = 0):
        self.ctx = ShardContext(index, n_shards, host_to_shard, seed)
        self.builder = builder
        self.env: Any = None
        self.windows = 0
        self.lookahead_stalls = 0
        #: CPU seconds spent polling the pipe between windows, kept out of
        #: the ``cpu_s`` the shard reports (that is its simulation work)
        self.poll_cpu_s = 0.0

    # -- dispatch -------------------------------------------------------
    def handle(self, msg: Tuple[Any, ...]) -> Any:
        return getattr(self, f"_do_{msg[0]}")(*msg[1:])

    def _eot(self, next_event: float) -> Dict[int, float]:
        """The EOT promise vector piggybacked on every reply carrying a
        next-event time (empty on single-kernel fabrics)."""
        net = self.env.net
        if isinstance(net, BoundaryNetwork):
            return net.earliest_output_times(next_event)
        return {}

    # -- verbs ----------------------------------------------------------
    def _do_build(self) -> Dict[str, Any]:
        self.env = self.builder(self.ctx)
        sim, net = self.env.sim, self.env.net
        lookahead_row: Dict[int, float] = {}
        if isinstance(net, BoundaryNetwork):
            lookahead_row = net.compute_lookahead_row()
        owned = sum(1 for name in net.hosts if self.ctx.owns(name))
        nxt = sim.peek()
        return {
            "lookahead_row": lookahead_row,
            "next": nxt,
            "eot": self._eot(nxt),
            "hosts_owned": owned,
            "hosts_total": len(net.hosts),
        }

    def _do_boot(self, settle: float) -> Dict[str, Any]:
        self.env.sim.process(self.env.boot_async(settle), name="boot")
        nxt = self.env.sim.peek()
        return {"next": nxt, "eot": self._eot(nxt)}

    def _do_spawn(self, fn: Callable, args: tuple, kwargs: dict) -> Dict[str, Any]:
        result = fn(self.env, self.ctx, *args, **kwargs)
        nxt = self.env.sim.peek()
        return {"next": nxt, "eot": self._eot(nxt), "result": result}

    def _do_window(self, before: float, msgs: list) -> Dict[str, Any]:
        net = self.env.net
        if msgs:
            net.inject(msgs)
        delivered = self.env.sim.run_window(before)
        self.windows += 1
        if delivered == 0:
            self.lookahead_stalls += 1
        outbox = net.drain_outbox() if isinstance(net, BoundaryNetwork) else {}
        nxt = self.env.sim.peek()
        return {
            "next": nxt,
            "eot": self._eot(nxt),
            "now": self.env.sim.now,
            "outbox": outbox,
            "delivered": delivered,
        }

    def _do_advance(self, until: float) -> Dict[str, Any]:
        if until > self.env.sim.now:
            self.env.sim.run(until=until)
        nxt = self.env.sim.peek()
        return {"next": nxt, "eot": self._eot(nxt), "now": self.env.sim.now}

    def _do_collect(self, fn: Callable, args: tuple, kwargs: dict) -> Dict[str, Any]:
        return {"result": fn(self.env, self.ctx, *args, **kwargs)}

    def _do_counters(self) -> Dict[str, Any]:
        sim, net = self.env.sim, self.env.net
        info: Dict[str, Any] = {
            "kernel": dict(sim.counters()),
            "now": sim.now,
            "cpu_s": time.process_time() - self.poll_cpu_s,
            "poll_cpu_s": self.poll_cpu_s,
            "maxrss_kb": _maxrss_kb(),
            "windows": self.windows,
            "lookahead_stalls": self.lookahead_stalls,
            "trace_records": len(self.env.trace.records),
        }
        if isinstance(net, BoundaryNetwork):
            info["boundary"] = net.boundary.snapshot()
        return info

    def _do_trace(self) -> list:
        return list(self.env.trace.records)

    def _do_stop(self) -> Dict[str, Any]:
        return {}


def shard_process_main(index: int, n_shards: int,
                       builder: Callable[[ShardContext], Any],
                       host_to_shard: Optional[Callable[[str], int]],
                       seed: int, conn, poll: bool = False) -> None:
    """Entry point of a shard OS process: serve requests until ``stop``.

    With ``poll`` (the coordinator sets it when every shard has a core of
    its own) the shard busy-waits up to :data:`GRANT_POLL_S` for the grant
    that follows a window instead of sleeping on the pipe straight away.

    Any exception inside a request is reported as ``("error", tb)`` and the
    loop keeps serving — the coordinator decides whether it is fatal.  A
    broken pipe (coordinator gone) exits quietly.
    """
    server = ShardServer(index, n_shards, builder, host_to_shard, seed)
    poller = None
    if poll and hasattr(os, "sched_yield") and hasattr(select, "poll"):
        poller = select.poll()
        poller.register(conn.fileno(), select.POLLIN)
    in_run = False
    while True:
        if in_run:
            c0 = time.process_time()
            _poll_for_request(poller, GRANT_POLL_S)
            server.poll_cpu_s += time.process_time() - c0
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        try:
            reply = ("ok", server.handle(msg))
        except BaseException:
            reply = ("error", traceback.format_exc())
        try:
            conn.send(reply)
        except (EOFError, OSError):
            return
        except Exception:
            # result not picklable — still answer, or the coordinator hangs
            try:
                conn.send(("error",
                           f"shard {index}: unpicklable reply to {msg[0]!r}\n"
                           + traceback.format_exc()))
            except Exception:
                return
        if msg and msg[0] == "stop":
            return
        in_run = poller is not None and bool(msg) and msg[0] == "window"
