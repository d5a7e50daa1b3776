"""Coordinator for the sharded multi-process simulation kernel (E29/E30).

:class:`ShardedSimulator` partitions a simulated network across kernel
shards — OS processes in ``mode="process"``, in-process servers in
``mode="local"`` (same code path, handy for tests) — and keeps them
conservatively synchronized with per-shard, demand-driven grants.

The coordinator assembles a **per-pair lookahead matrix** ``L[i][j]`` at
build time (min latency from shard-*i*-owned hosts to shard-*j*-owned
hosts, :meth:`~repro.net.boundary.BoundaryNetwork.compute_lookahead_row`);
shard reports piggyback **earliest-output-time promises** per destination
shard.  From ``(next_i, held-message floors, L)`` the coordinator solves
the classic LBTS fixed point

    ``E_j = min(wake_j, min_{k != j}(E_k + L[k][j]))``

(``wake_j`` = the earliest time shard *j* could execute anything; frozen
at the dispatch floor while *j* is mid-window) and issues

    ``grant_i = min_{j != i} min(EOT_j[i], E_j + L[j][i])``

A shard is dispatched **only when it has demand** — an event or a pending
boundary message strictly inside its grant — so every grant delivers at
least one event and the classic CMB *null message* (a pure-overhead sync
message that moves no simulation work) is structurally eliminated.
Grants are asynchronous: replies are collected with wait-any, so one slow
shard does not barrier the rest, and a shard whose horizon advanced is
re-dispatched immediately.  Boundary messages are batched per (dispatch,
destination shard).  Windows widen automatically to the full safe
horizon: when peers are quiescent far into the future the fixed point
pushes ``grant_i`` out accordingly.

Safety: a message posted at local time ``t`` by shard ``j`` arrives at
shard ``i`` no earlier than ``t + L[j][i]`` (every send path computes
arrival timestamps that include one full path latency — see
:mod:`repro.net.boundary`).  Since shard ``j`` executes nothing before
``E_j``, no message can land in shard ``i`` before ``grant_i`` — so
processing ``[now, grant_i)`` is safe, and the merged trace is
bit-identical to the single kernel's at every shard count
(regression-tested and CI-guarded via ``BENCH_E30.json``).

With one shard the coordinator degenerates to a single window per
``run()`` over the unmodified kernel — bit-identical to ``Simulator.run``
(guarded by the kernel determinism suite).
"""

from __future__ import annotations

import math
import multiprocessing
import traceback
from multiprocessing import connection as _mpconn
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.metrics import cores_available
from repro.obs.registry import Histogram
from repro.sim.kernel import SimulationError
from repro.sim.parallel.context import ShardContext
from repro.sim.parallel.runtime import ShardServer, shard_process_main
from repro.sim.trace import MergedTrace, merge_traces

_INF = float("inf")

#: bucket bounds for the granted-window-width histograms (seconds).
#: Demand-driven grants legitimately span microseconds (tight cross-shard
#: chatter) to whole simulated seconds (quiescent peers), so the buckets
#: run wider than the latency defaults.
WINDOW_WIDTH_BUCKETS: Tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: wall seconds the coordinator waits for *any* in-flight shard to answer
#: before it declares the run livelocked (a shard spinning at zero delay
#: never finishes its window).  More than 10x the slowest window any
#: benchmark here runs: a one-shard run is a single window, ~105 s for the
#: 10k-user sweep on one core; the 100k-user rung's slowest takes < 1 s.
SHARD_REPLY_TIMEOUT_S = 1800.0


class _LocalHandle:
    """In-process shard: requests execute synchronously on send()."""

    def __init__(self, index: int, n_shards: int, builder, host_to_shard, seed):
        self.server = ShardServer(index, n_shards, builder, host_to_shard, seed)
        self._reply: Any = None

    def send(self, msg: tuple) -> None:
        try:
            self._reply = ("ok", self.server.handle(msg))
        except Exception:
            self._reply = ("error", traceback.format_exc())

    def recv(self) -> Any:
        reply, self._reply = self._reply, None
        return reply

    def shutdown(self, force: bool = False) -> None:
        self.server = None


class _ProcessHandle:
    """A shard in its own OS process, reached over a multiprocessing pipe."""

    def __init__(self, index: int, n_shards: int, builder, host_to_shard, seed):
        try:
            mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            mp = multiprocessing.get_context()
        parent, child = mp.Pipe()
        self.proc = mp.Process(
            target=shard_process_main,
            # shards poll for their grants only while each has a core
            args=(index, n_shards, builder, host_to_shard, seed, child,
                  n_shards <= cores_available()),
            name=f"ace-shard-{index}",
            daemon=True,
        )
        self.proc.start()
        child.close()
        self.conn = parent

    def send(self, msg: tuple) -> None:
        self.conn.send(msg)

    def recv(self) -> Any:
        return self.conn.recv()

    def shutdown(self, force: bool = False) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        self.proc.join(timeout=None if not force else 0.5)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=5)


class ShardedSimulator:
    """Drive N kernel shards as one logical simulation.

    Parameters
    ----------
    builder:
        ``builder(ctx: ShardContext) -> Environment``.  Must build the
        *full* topology deterministically in every shard; in process mode
        it must be picklable-by-fork (module-level or closure — the fork
        start method inherits it).
    n_shards:
        Number of kernel shards.  ``1`` runs the unmodified kernel.
    host_to_shard:
        Module-level callable mapping host name -> shard index.  Required
        when ``n_shards > 1``.
    mode:
        ``"process"`` (default) or ``"local"`` (in-process, for tests).
    seed:
        Forwarded to every :class:`ShardContext` (shard-local RNG forks).

    Duck-types the slice of :class:`~repro.sim.kernel.Simulator` that
    :class:`~repro.obs.profiling.ProfileScope` consumes (``now``,
    ``counters()``), so profiling a sharded run needs no special casing.
    """

    def __init__(self, builder: Callable[[ShardContext], Any], *,
                 n_shards: int = 1,
                 host_to_shard: Optional[Callable[[str], int]] = None,
                 mode: str = "process",
                 seed: int = 0):
        if n_shards < 1:
            raise SimulationError(f"n_shards must be >= 1, got {n_shards}")
        if n_shards > 1 and host_to_shard is None:
            raise SimulationError("n_shards > 1 requires a host_to_shard map")
        if mode not in ("process", "local"):
            raise SimulationError(f"unknown shard mode {mode!r}")
        self.builder = builder
        self.n_shards = n_shards
        self.host_to_shard = host_to_shard
        self.mode = mode
        self.seed = seed
        #: smallest cross-shard latency, ``min(L[i][j])``
        self.lookahead = _INF
        #: per-pair lookahead matrix, ``L[i][j]`` = min latency i -> j
        self.lookahead_matrix: List[Dict[int, float]] = []
        self.rounds = 0          # scheduler passes
        self.grants = 0          # window grants dispatched
        self.null_grants = 0     # grants that moved no simulation work
        self.payload_free_grants = 0  # grants carrying no boundary payload
        self._now = 0.0
        self._handles: List[Any] = []
        self._next: List[float] = []
        #: latest EOT promise vector per shard, ``{dst: ts}``
        self._eot: List[Dict[int, float]] = []
        #: boundary messages awaiting relay, dst shard -> [msg, ...]
        self._held: Dict[int, List[tuple]] = {}
        self._started = False
        self._closed = False
        #: per-shard grant counts and granted-window-width histograms
        self._grants_per_shard: List[int] = [0] * n_shards
        self._width_hists: List[Histogram] = [
            Histogram(WINDOW_WIDTH_BUCKETS) for _ in range(n_shards)
        ]

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ShardedSimulator":
        if self._started:
            raise SimulationError("ShardedSimulator already started")
        self._started = True
        handle_cls = _ProcessHandle if self.mode == "process" else _LocalHandle
        for i in range(self.n_shards):
            self._handles.append(
                handle_cls(i, self.n_shards, self.builder,
                           self.host_to_shard, self.seed)
            )
        infos = self._request_all(("build",))
        self._next = [info["next"] for info in infos]
        self._eot = [dict(info.get("eot") or {}) for info in infos]
        self.lookahead_matrix = [
            {int(j): float(v) for j, v in (info.get("lookahead_row") or {}).items()}
            for info in infos
        ]
        self.lookahead = min(
            (la for row in self.lookahead_matrix for la in row.values()),
            default=_INF)
        if self.n_shards > 1:
            if self.lookahead <= 0.0:
                self._abort()
                raise SimulationError(
                    "zero inter-shard lookahead: hosts in different shards "
                    "share a zero-latency link; adjust the host_to_shard map "
                    "or the link latencies"
                )
            owned = sum(info["hosts_owned"] for info in infos)
            total = infos[0]["hosts_total"]
            if owned != total:
                self._abort()
                raise SimulationError(
                    f"host_to_shard is not a partition: {owned} hosts owned "
                    f"across shards, {total} in the topology"
                )
        return self

    def close(self) -> None:
        """Stop all shards cleanly.  Idempotent."""
        if not self._started or self._closed:
            self._closed = True
            return
        self._closed = True
        for handle in self._handles:
            try:
                handle.send(("stop",))
                handle.recv()
            except Exception:
                pass
        for handle in self._handles:
            handle.shutdown()

    def _abort(self) -> None:
        """Tear down after a failure: no stop round, just reap."""
        self._closed = True
        for handle in self._handles:
            handle.shutdown(force=True)

    def __enter__(self) -> "ShardedSimulator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request plumbing ----------------------------------------------
    def _request_all(self, msg: Optional[tuple],
                     per_shard: Optional[List[tuple]] = None) -> List[Any]:
        """Send to every shard, then collect every reply.

        Sending everything before receiving anything is what lets process
        shards execute a window concurrently.
        """
        for i, handle in enumerate(self._handles):
            try:
                handle.send(msg if per_shard is None else per_shard[i])
            except (OSError, ValueError) as exc:
                self._abort()
                raise SimulationError(f"shard {i} died mid-run ({exc!r})") from None
        out: List[Any] = []
        for i, handle in enumerate(self._handles):
            out.append(self._recv_checked(i))
        return out

    def _recv_checked(self, i: int) -> Any:
        """Receive one reply from shard ``i``, turning failures into
        :class:`SimulationError` (and reaping every shard)."""
        try:
            reply = self._handles[i].recv()
        except (EOFError, OSError) as exc:
            self._abort()
            raise SimulationError(f"shard {i} died mid-run ({exc!r})") from None
        if not reply or reply[0] != "ok":
            detail = reply[1] if reply else "no reply"
            self._abort()
            raise SimulationError(f"shard {i} failed:\n{detail}")
        return reply[1]

    def _require_started(self) -> None:
        if not self._started:
            raise SimulationError("ShardedSimulator not started (use start() "
                                  "or a with-block)")
        if self._closed:
            raise SimulationError("ShardedSimulator is closed")

    # -- simulation driving --------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def run(self, until: float) -> int:
        """Advance the whole simulation to ``until`` (inclusive).

        Returns the number of events delivered across all shards.  The
        horizon is mandatory: daemon loops never drain, so an unbounded
        run would not terminate (same contract as ``Simulator.run`` in
        practice everywhere in this repo).
        """
        self._require_started()
        until = float(until)
        if until < self._now:
            raise SimulationError(
                f"cannot run backwards: until={until} < now={self._now}"
            )
        upper = math.nextafter(until, math.inf)
        delivered = self._run_grants(until, upper)
        finals = self._request_all(("advance", until))
        for i, f in enumerate(finals):
            self._next[i] = f["next"]
            self._eot[i] = dict(f.get("eot") or {})
        self._now = until
        return delivered

    def _held_min(self, i: int) -> float:
        """Earliest timestamp among boundary messages held for shard ``i``."""
        msgs = self._held.get(i)
        if not msgs:
            return _INF
        return min(m[1] for m in msgs)

    # -- demand-driven grants ---------------------------------------------
    def _compute_grants(self, busy: Dict[int, tuple], upper: float) -> List[float]:
        """Per-shard safe horizons from the EOT/lookahead fixed point.

        ``E[j]`` lower-bounds every future *execution* (hence every future
        send-decision) of shard ``j``: its own wake time — ``min(next_j,
        earliest held message)``, frozen at the dispatch floor while the
        shard is mid-window — relaxed by the earliest timestamp a message
        from any peer could wake it at.  With every ``L[k][j] > 0``
        (enforced at :meth:`start`) the relaxation converges in at most
        ``n_shards`` passes: a cycle only adds positive latency.
        """
        n = self.n_shards
        E: List[float] = []
        for j in range(n):
            if j in busy:
                E.append(busy[j][0])  # frozen dispatch floor
            else:
                E.append(min(self._next[j], self._held_min(j)))
        for _ in range(n):
            changed = False
            for j in range(n):
                if j in busy:
                    continue  # the floor already bounds the open window
                best = min(self._next[j], self._held_min(j))
                for k in range(n):
                    if k == j:
                        continue
                    cand = E[k] + self.lookahead_matrix[k].get(j, _INF)
                    if cand < best:
                        best = cand
                if best < E[j]:
                    E[j] = best
                    changed = True
            if not changed:
                break
        grants: List[float] = []
        for i in range(n):
            g = upper
            for j in range(n):
                if j == i:
                    continue
                bound = min(self._eot[j].get(i, _INF),
                            E[j] + self.lookahead_matrix[j].get(i, _INF))
                if bound < g:
                    g = bound
            grants.append(g)
        return grants

    def _run_grants(self, until: float, upper: float) -> int:
        """Asynchronous demand-driven grant loop.

        Each scheduler pass dispatches every idle shard whose wake time —
        an event or a held boundary message — falls strictly inside its
        grant, then waits for *at least one* reply (wait-any in process
        mode), folds the replies in, and recomputes.  Dispatch-on-demand
        means every grant delivers at least one event, so ``null_grants``
        (grants that moved no work) stays at zero by construction; it is
        still counted, as the honest regression signal the E30 benchmark
        guards.
        """
        delivered = 0
        #: shard -> (dispatch floor, grant, had_payload) for in-flight windows
        busy: Dict[int, Tuple[float, float, bool]] = {}
        while True:
            grants = self._compute_grants(busy, upper)
            for i in range(self.n_shards):
                if i in busy:
                    continue
                wake = min(self._next[i], self._held_min(i))
                if wake > until:
                    continue
                g = grants[i]
                if wake >= g:
                    continue  # no executable demand inside the safe window
                inbox = self._held.pop(i, [])
                try:
                    self._handles[i].send(("window", g, inbox))
                except (OSError, ValueError) as exc:
                    self._abort()
                    raise SimulationError(
                        f"shard {i} died mid-run ({exc!r})") from None
                busy[i] = (wake, g, bool(inbox))
                self.grants += 1
                self._grants_per_shard[i] += 1
                if not inbox:
                    self.payload_free_grants += 1
                self._width_hists[i].observe(g - wake)
            if not busy:
                pending = [i for i in range(self.n_shards)
                           if min(self._next[i], self._held_min(i)) <= until]
                if not pending:
                    break
                # Unreachable by the progress argument (the module
                # docstring): the earliest-wake shard always receives a
                # grant strictly beyond its wake time.  Fail loudly
                # rather than spin if the invariant is ever broken.
                raise SimulationError(
                    f"conservative sync stalled: shards {pending} have work "
                    f"before t={until} but no grant advances them"
                )
            self.rounds += 1
            for i, rep in self._collect_ready(busy):
                _, _, had_payload = busy.pop(i)
                self._next[i] = rep["next"]
                self._eot[i] = dict(rep.get("eot") or {})
                delivered += rep["delivered"]
                if rep["delivered"] == 0 and not had_payload:
                    self.null_grants += 1
                for dst, msgs in rep["outbox"].items():
                    self._held.setdefault(int(dst), []).extend(msgs)
        return delivered

    def _collect_ready(self, busy: Dict[int, tuple]) -> List[Tuple[int, Any]]:
        """Replies from at least one busy shard (all of them in local mode,
        whichever pipes are readable in process mode)."""
        out: List[Tuple[int, Any]] = []
        if self.mode == "process":
            conns = {self._handles[i].conn: i for i in busy}
            try:
                ready = _mpconn.wait(list(conns), SHARD_REPLY_TIMEOUT_S)
            except OSError as exc:
                self._abort()
                raise SimulationError(f"shard pipe failed ({exc!r})") from None
            if not ready:
                self._abort()
                silent = "; ".join(
                    f"shard {i} granted [{busy[i][0]!r}, {busy[i][1]!r})"
                    for i in sorted(busy))
                raise SimulationError(
                    f"no shard replied in {SHARD_REPLY_TIMEOUT_S:g} wall "
                    f"seconds, livelocked at zero delay? {silent}")
            for conn in ready:
                i = conns[conn]
                out.append((i, self._recv_checked(i)))
        else:
            for i in list(busy):
                out.append((i, self._recv_checked(i)))
        return out

    def run_for(self, duration: float) -> int:
        """Advance by ``duration`` simulated seconds from the current time."""
        return self.run(self._now + float(duration))

    def boot(self, settle: float = 2.0) -> "ShardedSimulator":
        """Boot every shard's environment (tiered, staggered) and settle.

        Mirrors ``Environment.boot(settle)``: the async boot sequence
        spans ``2.25 * settle`` plus sub-millisecond start staggers, so we
        run to ``2.5 * settle + 1.0`` — a fixed horizon, making the
        post-boot clock shard-count invariant.
        """
        self._require_started()
        reports = self._request_all(("boot", float(settle)))
        for i, r in enumerate(reports):
            self._next[i] = r["next"]
            self._eot[i] = dict(r.get("eot") or {})
        self.run(self._now + 2.5 * float(settle) + 1.0)
        return self

    def spawn(self, fn: Callable, *args: Any, **kwargs: Any) -> List[Any]:
        """Call ``fn(env, ctx, *args, **kwargs)`` in every shard.

        ``fn`` decides per shard what to start (typically: spawn workload
        processes only for hosts the shard owns).  Must be module-level in
        process mode.  Returns the per-shard results.
        """
        self._require_started()
        reports = self._request_all(("spawn", fn, tuple(args), dict(kwargs)))
        for i, r in enumerate(reports):
            self._next[i] = r["next"]
            self._eot[i] = dict(r.get("eot") or {})
        return [r["result"] for r in reports]

    def collect(self, fn: Callable, *args: Any, **kwargs: Any) -> List[Any]:
        """Call ``fn(env, ctx, ...)`` in every shard and gather results."""
        self._require_started()
        reports = self._request_all(("collect", fn, tuple(args), dict(kwargs)))
        return [r["result"] for r in reports]

    # -- observability ---------------------------------------------------
    def shard_reports(self) -> List[Dict[str, Any]]:
        """Raw per-shard telemetry (kernel counters, cpu_s, boundary...)."""
        self._require_started()
        return self._request_all(("counters",))

    def counters(self) -> Dict[str, float]:
        """Aggregated counters, ProfileScope-compatible (flat numerics).

        Kernel counters are summed across shards.  ``sync.*`` telemetry:

        * ``sync.rounds`` — scheduler passes.
        * ``sync.grants`` — window grants dispatched (only shards with
          executable demand are dispatched).
        * ``sync.null_messages`` — grants that delivered nothing and
          carried no boundary payload (structurally 0).
        * ``sync.payload_free_grants`` — grants carrying no boundary
          payload.
        """
        reports = self.shard_reports()
        out: Dict[str, float] = {}
        for key in ("events_scheduled", "heap_pushes", "ready_hits",
                    "relays_avoided", "events_delivered"):
            out[key] = sum(r["kernel"].get(key, 0) for r in reports)
        out["sync.shards"] = self.n_shards
        out["sync.rounds"] = self.rounds
        out["sync.grants"] = self.grants
        out["sync.null_messages"] = self.null_grants
        out["sync.payload_free_grants"] = self.payload_free_grants
        out["sync.lookahead_stalls"] = sum(r["lookahead_stalls"] for r in reports)
        out["boundary.msgs_out"] = sum(
            r.get("boundary", {}).get("boundary_msgs_out", 0) for r in reports)
        out["boundary.bytes_out"] = sum(
            r.get("boundary", {}).get("boundary_bytes_out", 0) for r in reports)
        out["boundary.connects"] = sum(
            r.get("boundary", {}).get("boundary_connects", 0) for r in reports)
        return out

    def sync_report(self) -> Dict[str, Any]:
        """Structured sync telemetry: totals, and per-shard grant counts
        + granted-window-width histograms (picklable)."""
        return {
            "rounds": self.rounds,
            "grants": self.grants,
            "null_grants": self.null_grants,
            "payload_free_grants": self.payload_free_grants,
            "lookahead": self.lookahead,
            "per_shard": [
                {
                    "grants": self._grants_per_shard[i],
                    "window_width": self._width_hists[i].snapshot(),
                }
                for i in range(self.n_shards)
            ],
        }

    def merged_trace(self) -> MergedTrace:
        """Totally-ordered merge of every shard-local trace (satellite 2)."""
        self._require_started()
        return merge_traces(self._request_all(("trace",)))
