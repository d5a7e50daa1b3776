"""One workload's repetitions, in a process of their own.

``python3 -m bench`` starts this module once per workload (fresh process,
``PYTHONHASHSEED=0``) and reads one JSON document from the last line of its
standard output.  Untraced, it repeats the workload on fresh environments
with one seed until ``--seconds`` have passed and reports medians; traced,
it runs one untraced and one ``cProfile``-traced repetition and reports the
per-layer metrics.  End-to-end metrics never come from a traced repetition.
"""

from __future__ import annotations

import argparse
import heapq
import json
import re
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

from repro.metrics import cores_available, summarize

from bench import EXIT_SKIPPED_CORES
from bench.layers import LAYERS
from bench.workloads import WORKLOADS, Outcome, shards_of

#: fewest untraced repetitions whatever ``--seconds`` says
MIN_REPS = 3
#: calibration chunks timed before, and again after, every set-up
SETUP_CHUNKS = 3
#: what one calibration chunk takes on the sizing box at its usual speed;
#: host seconds are reported as if every chunk took exactly this long
CAL_NOMINAL_S = 0.020
_COMMAND = re.compile(r"(\w+) (\w+)=(\d+) (\w+)=(\w+);")


class Calibrator:
    """Measures how fast the host is running right now.

    The sandbox's speed drifts by tens of percent, within seconds and over
    minutes, so raw host times of identical work differ by that much.
    :meth:`chunk` times a fixed piece of work in the simulator's own mix --
    a heap-driven loop resuming generators that format, parse and store
    small commands -- and the runner interleaves chunks with slices of the
    timed section.  Host times are then scaled to a host on which a chunk
    takes :data:`CAL_NOMINAL_S`.
    """

    #: many more processes than events per chunk: a chunk finds its data
    #: as cold as a slice of simulation does, which tracked the simulator's
    #: own slowdowns best in the sizing runs (about 30 MB of generators)
    PROCESSES = 40_000
    EVENTS_PER_CHUNK = 4000

    def __init__(self) -> None:
        self._table: Dict[int, Dict[str, Any]] = {}
        self._seq = self.PROCESSES  # tie-breaker, unique per heap entry
        self._heap = []
        for index in range(self.PROCESSES):
            process = self._process(index)
            self._heap.append((next(process), index, process))
        heapq.heapify(self._heap)

    def _process(self, index: int):
        n = 0
        while True:
            match = _COMMAND.match(f"lookup seq={n} cls=HRM{index};")
            self._table[index] = {"seq": int(match.group(3)),
                                  "cls": match.group(5)}
            n += 1
            yield (index * 7919 + n * 104729) % 1013

    def chunk(self) -> float:
        """Seconds the fixed piece of work took."""
        t0 = time.perf_counter()
        heap, seq = self._heap, self._seq
        for _ in range(self.EVENTS_PER_CHUNK):
            when, _, process = heapq.heappop(heap)
            seq += 1
            heapq.heappush(heap, (when + next(process), seq, process))
        self._seq = seq
        return time.perf_counter() - t0


def _p50_p99_ms(samples_s: List[float]) -> Dict[str, float]:
    """Median and 99th percentile of simulated latencies, milliseconds."""
    summary = summarize(samples_s)
    return {"p50_ms": summary.p50 * 1e3, "p99_ms": summary.p99 * 1e3}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def run_rep(name: str, seed: int, scale: float, calibrator: Calibrator,
            traced: bool = False) -> Dict[str, Any]:
    """One repetition on a fresh environment: timings, counter deltas over
    the timed section, the outcome and (traced) the layer table.

    Every host time is scaled by the speed of the calibration chunks timed
    around set-up and between the slices of the timed section: seconds on
    a host of nominal speed.  The clock (and the profiler) is stopped
    while a chunk runs.
    """
    workload = WORKLOADS[name](seed, scale)
    try:
        chunks = [calibrator.chunk() for _ in range(SETUP_CHUNKS)]
        t0 = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - t0
        chunks += [calibrator.chunk() for _ in range(SETUP_CHUNKS)]
        setup_speed = CAL_NOMINAL_S / statistics.fmean(chunks)

        before = workload.counters()
        if traced:
            workload.trace_on()
        timed_s = cpu_s = 0.0
        chunks = []

        def breathe() -> None:
            nonlocal timed_s, cpu_s, t1, c1
            timed_s += time.perf_counter() - t1
            cpu_s += time.process_time() - c1
            if traced:
                workload.trace.pause()
            chunks.append(calibrator.chunk())
            if traced:
                workload.trace.resume()
            t1, c1 = time.perf_counter(), time.process_time()

        t1, c1 = time.perf_counter(), time.process_time()
        workload.run(breathe)
        timed_s += time.perf_counter() - t1
        cpu_s += time.process_time() - c1
        table = workload.trace_off() if traced else None
        after = workload.counters()
        outcome = workload.outcome()
        rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  + workload.shard_rss_kb())
    finally:
        workload.close()
    speed = CAL_NOMINAL_S / statistics.fmean(chunks)
    delta = {k: (v - before.get(k, 0)) * (speed if k.startswith("cpu.") else 1)
             for k, v in after.items()}
    if table is not None:
        for layer in LAYERS:
            table[layer][0] *= speed
        table["wait_s"] *= speed
        table["total_s"] *= speed
    return {
        "setup_s": setup_s * setup_speed, "timed_s": timed_s * speed,
        "raw_timed_s": timed_s, "host_speed": speed, "outcome": outcome,
        # this process's CPU inside the timed section (calibration apart)
        "coordinator_cpu_s": cpu_s * speed,
        "delta": delta, "after": after, "table": table, "rss_kb": rss_kb,
    }


def end_to_end(rep: Dict[str, Any]) -> Dict[str, float]:
    outcome: Outcome = rep["outcome"]
    return {
        "setup_s": rep["setup_s"],
        "ops_per_host_s": _ratio(outcome.served, rep["timed_s"]),
        "sim_ops_per_sim_s": _ratio(outcome.served, outcome.sim_duration_s),
    }


def counted_layers(rep: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics read from public counters after an untraced rep.
    A layer that did not run on this workload reads 0."""
    delta, after, outcome = rep["delta"], rep["after"], rep["outcome"]
    ops, timed_s = outcome.served, rep["timed_s"]

    def total(prefix: str, suffix: str) -> float:
        return sum(v for k, v in delta.items()
                   if k.startswith(prefix) and k.endswith(suffix))

    events = delta["sim.events_delivered"]
    out = {
        **{f"sim_{k}": v for k, v in _p50_p99_ms(outcome.latencies).items()},
        "sim.events_per_op": _ratio(events, ops),
        "sim.events_per_host_s": _ratio(events, timed_s),
        "sim.heap_push_share": _ratio(delta["sim.heap_pushes"],
                                      delta["sim.events_scheduled"]),
        "net.messages_per_op": _ratio(delta["net.messages"], ops),
        "net.bytes_per_op": _ratio(delta["net.bytes_total"], ops),
        "net.dropped": delta["net.dropped"],
        "core.pool_dials_per_op": _ratio(delta.get("rpc.pool.dial", 0), ops),
        "core.pool_reuse_per_op": _ratio(delta.get("rpc.pool.reuse", 0), ops),
        "core.asd_queue_wait_sim_p99_ms": 1e3 * max(
            (v for k, v in after.items() if k.startswith("daemon.asd")
             and k.endswith(".queue_wait_s.p99")), default=0.0),
        "obs.spans_per_op": _ratio(delta["obs.spans"], ops),
        "obs.telemetry_pushes": delta.get("telemetry.pushes", 0),
        "obs.telemetry_rows": delta.get("telemetry.rows", 0),
        "recovery.checkpoints": delta.get("recovery.checkpoints", 0),
        "recovery.suspicions": delta.get("recovery.suspicions", 0),
        "recovery.restarts": delta.get("recovery.restarts", 0),
        "workloads.sessions_per_host_s": _ratio(
            outcome.exact.get("sessions", 0), timed_s),
        "workloads.roam_share": _ratio(delta.get("workloads.roams", 0), ops),
    }

    puts, gets = outcome.series.get("put", []), outcome.series.get("get", [])
    out.update({f"store.put_sim_{k}": v for k, v in _p50_p99_ms(puts).items()})
    out.update({f"store.get_sim_{k}": v for k, v in _p50_p99_ms(gets).items()})
    out.update({
        # replication also carries the planes' checkpoints: only counted
        # against the bench's own puts
        "store.replication_batches_per_kput": 1e3 * _ratio(
            total("store.", ".replication_batches"), len(puts)) if puts else 0.0,
        "store.replication_lag_dropped": total("store.", ".replication_lag_dropped"),
        "store.forwards_per_op": _ratio(total("store.", ".forwards"), ops),
        "store.client_failovers": delta.get("store.client.failovers", 0),
    })

    shard_cpu = [v for k, v in sorted(delta.items()) if k.startswith("cpu.shard")]
    sharded = bool(shard_cpu)
    busiest = max(shard_cpu, default=0.0)
    out.update({
        "sim.parallel.grants_per_kop": 1e3 * _ratio(delta.get("sync.grants", 0), ops),
        "sim.parallel.boundary_msgs_per_op": _ratio(delta.get("boundary.msgs_out", 0), ops),
        "sim.parallel.boundary_bytes_per_op": _ratio(delta.get("boundary.bytes_out", 0), ops),
        "sim.parallel.null_messages": delta.get("sync.null_messages", 0),
        "sim.parallel.lookahead_stalls": delta.get("sync.lookahead_stalls", 0),
        "sim.parallel.coordinator_cpu_s": rep["coordinator_cpu_s"] if sharded else 0.0,
        "sim.parallel.shard_cpu_max_s": busiest,
        "sim.parallel.shard_cpu_imbalance": _ratio(
            busiest, statistics.fmean(shard_cpu)) if sharded else 0.0,
        # the share of the run the busiest shard spent not executing
        "sim.parallel.blocked_share": 1.0 - _ratio(busiest, timed_s) if sharded else 0.0,
    })
    return out


def traced_layers(traced: Dict[str, Any], untraced: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of the traced rep; ``untraced`` is the same
    workload without the profiler, for the overhead ratio."""
    table, ops = traced["table"], traced["outcome"].served
    out: Dict[str, float] = {}
    for layer in LAYERS:
        self_s, calls = table[layer]
        out[f"{layer}.self_host_us_per_op"] = 1e6 * _ratio(self_s, ops)
        if layer != "python":
            out[f"{layer}.calls_per_op"] = _ratio(calls, ops)
    counts = table["boundaries"]
    out["core.connects_per_op"] = _ratio(counts["connects"], ops)
    out["lang.parses_per_op"] = _ratio(counts["parses"], ops)
    out["lang.serializes_per_op"] = _ratio(counts["serializes"], ops)
    out["core.daemon_dispatches_per_op"] = _ratio(counts["dispatches"], ops)
    out["trace_overhead_ratio"] = _ratio(
        _ratio(traced["timed_s"], ops),
        _ratio(untraced["timed_s"], untraced["outcome"].served))
    return out


def _digest(per_rep: List[Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Median and range over repetitions, per metric."""
    return {
        name: {"value": statistics.median(r[name] for r in per_rep),
               "min": min(r[name] for r in per_rep),
               "max": max(r[name] for r in per_rep)}
        for name in per_rep[0]
    }


def _check_repeats(reps: List[Dict[str, Any]], problems: List[str],
                   what: str = "repetitions") -> None:
    """Same seed, same inputs: every exact value must come out the same."""
    first = reps[0]["outcome"].exact
    for rep in reps[1:]:
        for key, value in rep["outcome"].exact.items():
            if first[key] != value:
                problems.append(f"{what} disagree on {key}: "
                                f"{first[key]!r} vs {value!r}")


def run_workload(name: str, seed: int, scale: float, seconds: float,
                 traced: bool) -> Dict[str, Any]:
    if shards_of(name) > cores_available():
        print(f"skipped: cores -- {name} needs {shards_of(name)} cores, "
              f"{cores_available()} available", file=sys.stderr)
        raise SystemExit(EXIT_SKIPPED_CORES)
    started = time.perf_counter()
    calibrator = Calibrator()
    problems: List[str] = []

    reps = [run_rep(name, seed, scale, calibrator)]
    rep_s = time.perf_counter() - started
    # stop while one more repetition would still end inside the budget
    while not traced and (len(reps) < MIN_REPS or
                          time.perf_counter() - started + rep_s <= seconds):
        t0 = time.perf_counter()
        reps.append(run_rep(name, seed, scale, calibrator))
        rep_s = time.perf_counter() - t0
    _check_repeats(reps, problems)

    if traced:
        layers = counted_layers(reps[0])
        layers["sim.parallel.speedup_vs_1shard"] = 0.0
        if name == "campus_pop_2shard":
            # The sharded run's oracle is the single kernel on the same
            # inputs: ops, latency samples and merged trace must match.
            reference = run_rep("campus_pop", seed, scale, calibrator)
            _check_repeats([reference, reps[0]], problems, "1 and 2 shards")
            layers["sim.parallel.speedup_vs_1shard"] = _ratio(
                reference["timed_s"], reps[0]["timed_s"])
        traced_rep = run_rep(name, seed, scale, calibrator, traced=True)
        _check_repeats([reps[0], traced_rep], problems, "traced and untraced")
        reps.append(traced_rep)
        layers.update(traced_layers(traced_rep, reps[0]))
        metrics = {k: {"value": v, "min": v, "max": v} for k, v in layers.items()}
        table = traced_rep["table"]
        profile = {"total_s": table["total_s"], "wait_s": table["wait_s"],
                   "layers_s": sum(table[layer][0] for layer in LAYERS)}
    else:
        metrics = _digest([end_to_end(r) for r in reps])
        # the high-water mark after the first repetition, so that it does
        # not grow with how many repetitions the host had time for
        rss_mb = reps[0]["rss_kb"] / 1024.0
        metrics["peak_rss_mb"] = {"value": rss_mb, "min": rss_mb, "max": rss_mb}
        profile = None

    outcomes = [r["outcome"] for r in reps]
    for outcome in outcomes:
        problems.extend(outcome.problems)
    attempted = sum(o.attempted for o in outcomes)
    failed = attempted if problems else sum(o.failed for o in outcomes)
    latencies = outcomes[0].latencies
    return {
        "workload": name,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "reps": len(reps),
        "shards": shards_of(name),
        "cores_available": cores_available(),
        "metrics": metrics,
        # exact per seed: compared for equality by bench.check
        "exact": dict(outcomes[0].exact, **{
            f"sim_{k}": v for k, v in _p50_p99_ms(latencies).items()}),
        "latency_samples": len(latencies),
        "samples_beyond_p99": len(latencies) - int(0.99 * len(latencies)),
        "profile": profile,
        # host times as measured, before scaling to nominal host speed
        "raw_timed_s": [r["raw_timed_s"] for r in reps],
        "host_speed": [r["host_speed"] for r in reps],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.scale, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
