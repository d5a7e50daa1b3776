"""The four named workloads.

Each workload is an object with the same five steps, so the runner in
:mod:`bench.child` can time them the same way:

``setup()``       build the topology, fork shards, boot, enable planes
``counters()``    cumulative public counters (called before and after ``run``)
``run(breathe)``  the timed section: start the load, run to the end, collect
``outcome()``     untimed: check outputs, hash traces, settle replicas
``close()``       stop every process the workload started

``run`` advances the simulation a slice of simulated time at a time and
calls ``breathe()`` after each slice: the runner stops its clock there and
times a calibration chunk, so that it knows how fast the host was running
*during* the section (see :mod:`bench.child`).

All load is generated here from ``seed``; the simulator receives only the
generated inputs.  Sizes are multiplied by ``scale``.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.core.client import ServiceClient
from repro.env import ACEEnvironment, build_campus, campus_shard_map
from repro.lang import ACECmdLine
from repro.obs import span_to_wire
from repro.sim.parallel import ShardedSimulator
from repro.workloads import (
    PopulationProfile,
    collect_population,
    start_population,
)

from bench.layers import Trace, merge_tables, shard_trace_off, shard_trace_on

#: simulated seconds per slice of a timed section: tens of host
#: milliseconds, short against the host's speed drift
SLICE_SIM_S = 0.25

#: metric-registry prefixes the per-layer metrics read
_METRIC_PREFIXES = ("rpc.pool.", "daemon.asd", "telemetry.", "recovery.",
                    "store.")


@dataclass
class Outcome:
    """What one repetition produced, before any host time is attached."""

    attempted: int
    served: int
    failed: int
    #: simulated seconds the load ran for
    sim_duration_s: float
    #: simulated latency of every served op, seconds
    latencies: List[float]
    #: failed correctness checks; any one marks every op of the rep failed
    problems: List[str] = field(default_factory=list)
    #: hashes and counts that must repeat exactly at one seed
    exact: Dict[str, Any] = field(default_factory=dict)
    #: workload-specific latency series, seconds (store: puts and gets)
    series: Dict[str, List[float]] = field(default_factory=dict)


def run_sliced(sim, end: float, breathe: Callable[[], None]) -> None:
    """Run ``sim`` (a kernel or a sharded simulator) to ``end``, a slice at
    a time.  The slicing is fixed, so results stay exact per seed."""
    while sim.now < end:
        sim.run(min(end, sim.now + SLICE_SIM_S))
        breathe()


def _plane_counters(env: ACEEnvironment, shard=None) -> Dict[str, float]:
    """Cumulative public counters of one environment, everything but the
    kernel's.  Also a ``ShardedSimulator.collect`` target: then it is one
    shard's share."""
    out: Dict[str, float] = {
        f"net.{k}": v for k, v in env.net.stats.snapshot().items()}
    out.update((k, v) for k, v in env.obs.metrics.snapshot().items()
               if k.startswith(_METRIC_PREFIXES) and isinstance(v, (int, float)))
    out["obs.spans"] = len(env.obs.tracer.spans)
    population = getattr(env, "population", None)
    if population is not None:
        out["workloads.roams"] = population.roams
    return out


class _InProcess:
    """Shared steps of the two workloads that run on one in-process kernel."""

    env: ACEEnvironment

    def __init__(self) -> None:
        #: this process's instruments while a traced repetition runs
        self.trace: Optional[Trace] = None

    def counters(self) -> Dict[str, float]:
        out = _plane_counters(self.env)
        out.update((f"sim.{k}", v) for k, v in self.env.sim.counters().items())
        return out

    def trace_on(self) -> None:
        self.trace = Trace(self.env.net)
        self.trace.start()

    def trace_off(self) -> Dict[str, Any]:
        assert self.trace is not None
        return self.trace.stop()

    def shard_rss_kb(self) -> int:
        return 0

    def close(self) -> None:
        pass


class Campus:
    """``campus_pop`` / ``campus_pop_2shard``: the user-visible run ROADMAP
    names -- boot, population, collect -- on 1 or 2 kernel shards.

    Open loop at the session level (sessions arrive on a seeded MMPP
    schedule whatever the system does), closed loop per op in a session.
    """

    REGIONS = 4
    DRAIN_S = 3.0

    def __init__(self, n_shards: int, seed: int, scale: float) -> None:
        self.n_shards = n_shards
        self.seed = seed
        duration = 10.0 * scale
        self.profile = PopulationProfile(
            n_users=max(1, round(500 * scale)), duration=duration,
            process="mmpp", flash_at=0.6 * duration,
            flash_duration=0.2 * duration,
        )
        self.sim: Optional[ShardedSimulator] = None
        self._results: List[dict] = []
        #: the coordinating process's instruments (shards have their own)
        self.trace: Optional[Trace] = None

    def setup(self) -> None:
        shard_map = (campus_shard_map(self.REGIONS, self.n_shards)
                     if self.n_shards > 1 else None)
        self.sim = ShardedSimulator(
            functools.partial(build_campus, regions=self.REGIONS,
                              seed=self.seed),
            n_shards=self.n_shards, host_to_shard=shard_map, mode="process",
            seed=self.seed,
        ).start()
        self.sim.boot(settle=2.0)

    def counters(self) -> Dict[str, float]:
        sim = self.sim
        out: Dict[str, float] = {}
        for shard in sim.collect(_plane_counters):
            for key, value in shard.items():
                # histogram percentiles do not add: keep the worst shard's
                if key.endswith((".p50", ".p95", ".p99", ".max", ".mean")):
                    out[key] = max(out.get(key, 0.0), value)
                else:
                    out[key] = out.get(key, 0) + value
        for key, value in sim.counters().items():
            out[f"sim.{key}" if "." not in key else key] = value
        for i, report in enumerate(sim.shard_reports()):
            out[f"cpu.shard{i}"] = report["cpu_s"]
        return out

    def run(self, breathe: Callable[[], None]) -> None:
        sim = self.sim
        sim.spawn(start_population, profile=self.profile)
        run_sliced(sim, sim.now + self.profile.duration + self.DRAIN_S, breathe)
        self._results = sim.collect(collect_population)

    def outcome(self) -> Outcome:
        results = self._results
        ops = sum(r["ops"] for r in results)
        errors = sum(r["errors"] for r in results)
        spawned = sum(r["sessions_spawned"] for r in results)
        started = sum(r["sessions_started"] for r in results)
        latencies = sorted(s for r in results for s in r["samples"])
        problems = []
        if errors:
            problems.append(f"{errors} session ops errored")
        if started != spawned:
            problems.append(f"{started} sessions started of {spawned} spawned")
        digest = hashlib.sha256(
            "\n".join(repr(s) for s in latencies).encode()).hexdigest()
        return Outcome(
            attempted=ops + errors, served=ops, failed=errors,
            sim_duration_s=self.profile.duration, latencies=latencies,
            problems=problems,
            exact={"ops": ops, "sessions": started,
                   "latency_hash": digest,
                   "trace_hash": self.sim.merged_trace().hash()},
        )

    def trace_on(self) -> None:
        self.sim.spawn(shard_trace_on)
        self.trace = Trace()
        self.trace.start()

    def trace_off(self) -> Dict[str, Any]:
        assert self.trace is not None
        coordinator = self.trace.stop()
        return merge_tables([coordinator] + self.sim.collect(shard_trace_off))

    def shard_rss_kb(self) -> int:
        return sum(int(r.get("maxrss_kb", 0))
                   for r in self.sim.shard_reports())

    def close(self) -> None:
        if self.sim is not None:
            self.sim.close()


class RoomPlanes(_InProcess):
    """``room_planes``: one room's service set with the supervision and
    telemetry planes on, under 16 closed-loop clients that each hold one
    persistent connection to the ASD and trace every op."""

    THINK_S = 0.02
    DRAIN_S = 1.0

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__()
        self.seed = seed
        self.n_clients = max(1, round(16 * scale))
        self.duration = 16.0 * scale
        self._latencies: List[float] = []
        self._bad_replies = 0
        self._attempted = 0
        self._spans_before = 0

    def setup(self) -> None:
        env = ACEEnvironment(seed=self.seed, lease_duration=4.0)
        env.add_infrastructure()
        env.add_persistent_store(replicas=2, groups=1)
        env.add_workstation("lab1", room="lab", monitors=False)
        env.boot(settle=2.0)
        env.enable_supervision(suspicion_window=2.5, check_interval=0.25,
                               checkpoint_interval=1.0)
        env.enable_telemetry(interval=0.5)
        self.env = env

    def _client(self, index: int, stop_at: float) -> Generator:
        env, sim = self.env, self.env.sim
        rng = random.Random(f"{self.seed}:room_planes:{index}")
        client = ServiceClient(env.ctx, env.net.host("lab1"),
                               principal=f"bench-{index}")
        conn = yield from client.connect(env.asd_address)
        command = ACECmdLine("lookup", cls="HRM")
        iteration = 0
        while sim.now < stop_at:
            self._attempted += 1
            t0 = sim.now
            root = client.begin_trace("room_planes", client=index,
                                      iteration=iteration)
            reply = yield from conn.call(command, check=False)
            ok = reply.name == "cmdOk" and reply.get("count", 0) >= 1
            client.end_trace(root, status="ok" if ok else "cmdFailed")
            if ok:
                self._latencies.append(sim.now - t0)
            else:
                self._bad_replies += 1
            iteration += 1
            yield sim.timeout(rng.expovariate(1.0 / self.THINK_S))
        conn.close()

    def run(self, breathe: Callable[[], None]) -> None:
        sim = self.env.sim
        self._spans_before = len(self.env.obs.tracer.spans)
        stop_at = sim.now + self.duration
        for i in range(self.n_clients):
            sim.process(self._client(i, stop_at), name=f"bench-{i}")
        run_sliced(sim, stop_at + self.DRAIN_S, breathe)

    def outcome(self) -> Outcome:
        env = self.env
        spans = env.obs.tracer.spans[self._spans_before:]
        roots = sum(1 for s in spans if s.name == "room_planes")
        restarts = env.obs.metrics.snapshot("recovery.").get(
            "recovery.restarts", 0)
        problems = []
        if roots != self._attempted:
            problems.append(f"{roots} root spans for {self._attempted} ops")
        if restarts:
            problems.append(f"{restarts} supervisor restarts with no fault")
        digest = hashlib.sha256()
        for span in spans:
            digest.update(span_to_wire(span).encode())
            digest.update(b"\n")
        served = len(self._latencies)
        return Outcome(
            attempted=self._attempted, served=served,
            failed=self._bad_replies, sim_duration_s=self.duration,
            latencies=sorted(self._latencies), problems=problems,
            exact={"ops": served, "spans": len(spans),
                   "trace_hash": digest.hexdigest()},
        )


class StoreMix(_InProcess):
    """``store_mix``: 24 closed-loop clients doing 50 % put / 50 % get
    over 64 own paths each, through ``env.store_client``, against a store
    of 2 groups x 3 replicas.

    Each client writes all its paths once during set-up and the replicas
    are left to settle, so in the timed section a not-found is always
    wrong.  Reads rotate over replicas that apply writes in batches, so a
    read may be older than the client's last write: the check is that it
    returns *a* value this client put at that path.
    """

    THINK_S = 0.005
    N_PATHS = 64
    SYNC_INTERVAL_S = 2.0
    DRAIN_S = 1.0

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__()
        self.seed = seed
        self.n_clients = max(1, round(24 * scale))
        self.duration = 5.0 * scale
        self._puts: List[float] = []
        self._gets: List[float] = []
        self._wrong_reads = 0
        self._attempted = 0
        self._clients: List[Any] = []
        self._written: List[Dict[str, List[str]]] = []
        self._daemons: List[Any] = []

    def setup(self) -> None:
        env = ACEEnvironment(seed=self.seed)
        env.add_infrastructure("infra", with_wss=False, with_idmon=False)
        self._daemons = env.add_persistent_store(
            replicas=3, groups=2, sync_interval=self.SYNC_INTERVAL_S)
        env.boot(settle=2.0)
        self.env = env
        host = env.net.host("infra")
        for i in range(self.n_clients):
            self._clients.append(
                env.store_client(host, principal=f"bench-{i}"))
            self._written.append({})
            env.sim.process(self._seed_paths(i), name=f"bench-seed-{i}")
        env.run_for(2 * self.SYNC_INTERVAL_S)

    def _path(self, index: int, slot: int) -> str:
        return f"/bench/c{index}/o{slot}"

    def _seed_paths(self, index: int) -> Generator:
        for slot in range(self.N_PATHS):
            path = self._path(index, slot)
            yield from self._clients[index].put(path, {"v": "seed"})
            self._written[index][path] = ["seed"]

    def _client(self, index: int, stop_at: float) -> Generator:
        sim = self.env.sim
        rng = random.Random(f"{self.seed}:store_mix:{index}")
        client, written = self._clients[index], self._written[index]
        iteration = 0
        while sim.now < stop_at:
            self._attempted += 1
            path = self._path(index, rng.randrange(self.N_PATHS))
            t0 = sim.now
            if rng.random() < 0.5:
                value = str(iteration)
                yield from client.put(path, {"v": value})
                written[path].append(value)
                self._puts.append(sim.now - t0)
            else:
                got = yield from client.get(path)
                if got is None or got.get("v") not in written[path]:
                    self._wrong_reads += 1
                else:
                    self._gets.append(sim.now - t0)
            iteration += 1
            yield sim.timeout(rng.expovariate(1.0 / self.THINK_S))

    def run(self, breathe: Callable[[], None]) -> None:
        sim = self.env.sim
        stop_at = sim.now + self.duration
        for i in range(self.n_clients):
            sim.process(self._client(i, stop_at), name=f"bench-{i}")
        run_sliced(sim, stop_at + self.DRAIN_S, breathe)

    def outcome(self) -> Outcome:
        self.env.run_for(2 * self.SYNC_INTERVAL_S)
        problems = []
        group_hashes: Dict[int, set] = {}
        for daemon in self._daemons:
            group_hashes.setdefault(daemon.group_index, set()).add(
                daemon.namespace.namespace_hash())
        for group, hashes in sorted(group_hashes.items()):
            if len(hashes) != 1:
                problems.append(
                    f"group {group} replicas hold {len(hashes)} namespaces")
        namespace = hashlib.sha256("".join(
            sorted(h for hashes in group_hashes.values() for h in hashes)
        ).encode()).hexdigest()
        served = len(self._puts) + len(self._gets)
        return Outcome(
            attempted=self._attempted, served=served,
            failed=self._wrong_reads, sim_duration_s=self.duration,
            latencies=sorted(self._puts + self._gets), problems=problems,
            exact={"ops": served, "puts": len(self._puts),
                   "namespace_hash": namespace},
            series={"put": sorted(self._puts), "get": sorted(self._gets)},
        )


WORKLOADS = {
    "campus_pop": functools.partial(Campus, 1),
    "campus_pop_2shard": functools.partial(Campus, 2),
    "room_planes": RoomPlanes,
    "store_mix": StoreMix,
}


def shards_of(name: str) -> int:
    """Kernel shards (OS processes) the workload needs a core each for."""
    return 2 if name == "campus_pop_2shard" else 1
