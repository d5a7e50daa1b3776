"""``python3 -m bench``: run the named workloads, print every metric.

One workload at a time, each in a fresh child process (see
:mod:`bench.child`).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` for the (last) workload
run: the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Any crash or failed correctness check ends the run with a
non-zero exit status and no result line.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import EXIT_SKIPPED_CORES, ROOT, load_spec

#: a run of one workload must end within the driver's 180 s
CHILD_TIMEOUT_S = 170


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_child(workload: str, args: argparse.Namespace) -> Optional[Dict[str, Any]]:
    """Run one workload in its own process group; raises SystemExit naming
    the workload if the child crashes, hangs or reports a failed check.
    Returns ``None`` if the box has too few cores for the workload."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + env.get("PYTHONPATH", "").split(os.pathsep))
    command = [sys.executable, "-m", "bench.child", "--workload", workload,
               "--seed", str(args.seed), "--scale", str(args.scale),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                             stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        # the child's shard processes share its group: leave none behind
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if stdout is None:
        raise SystemExit(f"bench: {workload}: no result after {CHILD_TIMEOUT_S} s")
    if child.returncode == EXIT_SKIPPED_CORES:
        return None
    if child.returncode != 0:
        raise SystemExit(f"bench: {workload}: child exited with {child.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(
            f"bench: {workload}: {result['failed']} of {result['attempted']} "
            f"ops failed: " + "; ".join(result["problems"] or ["op errors"]))
    return result


def attach_spec(result: Dict[str, Any], defs: List[Dict[str, Any]], workload: str) -> None:
    """Give every metric its unit from BENCHMARK.json; the child must have
    emitted exactly the names the spec lists for this kind of run."""
    metrics = result["metrics"]
    expected = {d["name"] for d in defs}
    if set(metrics) != expected:
        raise SystemExit(
            f"bench: {workload}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(expected - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - expected)}")
    for d in defs:
        metrics[d["name"]]["unit"] = d["unit"]


def print_table(result: Dict[str, Any], defs: List[Dict[str, Any]]) -> None:
    print(f"\n== {result['workload']}: {result['reps']} reps, "
          f"{result['exact']['ops']} ops per rep, "
          f"{result['latency_samples']} latency samples "
          f"({result['samples_beyond_p99']} beyond p99)")
    print(f"{'metric':<42}{'value':>16}  {'unit':<14}{'better':<8}"
          f"{'bound':<7}min .. max over reps")
    for d in defs:
        m = result["metrics"][d["name"]]
        bound = f"{d['bound']:.2f}" if "bound" in d else "-"
        print(f"{d['name']:<42}{m['value']:>16.6g}  {d['unit']:<14}"
              f"{d['better']:<8}{bound:<7}{m['min']:.6g} .. {m['max']:.6g}")
    for key, value in sorted(result["exact"].items()):
        print(f"exact {key} = {value}")


def check_shards_agree(results: Dict[str, Dict[str, Any]]) -> None:
    """When both campus workloads ran, the single kernel is the sharded
    run's oracle: ops, latency samples and merged trace must be identical."""
    one, two = results.get("campus_pop"), results.get("campus_pop_2shard")
    if one and two and one["exact"] != two["exact"]:
        raise SystemExit(
            f"bench: campus_pop_2shard: differs from campus_pop on the same "
            f"inputs: {one['exact']} vs {two['exact']}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=29,
                        help="seeds the environment and every generated input")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long the untraced repetitions measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies user / client counts and durations")
    parser.add_argument("--out", help="write the whole result as JSON here")
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error("--scale must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"bench: no src/repro under {ROOT}: nothing to measure")

    # a terminated run must still stop its child: unwind through finally
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    defs = spec["per_layer"] if args.trace else spec["end_to_end"]
    document = {
        "header": {
            "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "commit": _commit(),
        },
        "workloads": {},
    }
    # Two benchmarks at once would time each other: one lock per checkout.
    with open(ROOT / ".bench.lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise SystemExit("bench: another benchmark is running in this checkout")
        for workload in args.workload or names:
            result = run_child(workload, args)
            if result is None:
                # asked for by name it is an error; in the default set the
                # run goes on without it and says so
                if args.workload:
                    raise SystemExit(f"bench: {workload}: skipped: cores")
                document["header"].setdefault("notes", []).append(
                    f"{workload}: skipped: cores")
                continue
            attach_spec(result, defs, workload)
            document["header"]["cores_available"] = result.pop("cores_available")
            document["workloads"][workload] = result
            print_table(result, defs)
    check_shards_agree(document["workloads"])

    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1, sort_keys=True))
    print()
    for result in document["workloads"].values():
        print(json.dumps({
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in result["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
