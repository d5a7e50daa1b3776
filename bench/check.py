"""``python3 -m bench.check PARENT.json CHANGE.json [...]``: compare results.

Each file is what ``python3 -m bench --out FILE`` wrote.  The first is the
parent; every other file is compared with it, one row per workload and
metric, showing each side's median and min..max over repetitions:

``identical`` / ``DIFFERS``   a value that is exact per seed (ops, ``sim_*``,
                              per-op counts, trace and namespace hashes)
``unchanged`` / ``better``    a bounded host-time metric within its bound
``unresolved``                the spread over repetitions on either side is
                              wider than the bound, and the change's
                              repetitions do not all beat the parent's
``REGRESSED``                 worse than the parent by more than the bound
``info``                      a per-layer host-time metric: it has no bound

Exit status is non-zero on any ``DIFFERS`` or ``REGRESSED``.  Files with a
different ``seed``, ``scale`` or ``trace`` cannot be compared.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from bench import load_spec

#: names measured in host time or memory; every other value is exact per seed
_HOST_SUFFIXES = (
    "setup_s", "peak_rss_mb", "_host_s", "_host_us_per_op", "_cpu_s",
    "_cpu_max_s", "_cpu_imbalance", "blocked_share", "speedup_vs_1shard",
    "trace_overhead_ratio",
)
#: on more than one shard the coordinator serves whichever shard answers
#: first, so how many grants (and calls) a run takes depends on host timing
_GRANT_DEPENDENT_SUFFIXES = ("grants_per_kop", "lookahead_stalls", ".calls_per_op")


def is_exact(name: str, shards: int = 1) -> bool:
    """Must this metric repeat exactly at one seed, on a workload that runs
    on ``shards`` kernel shards?"""
    if name.endswith(_HOST_SUFFIXES):
        return False
    return shards == 1 or not name.endswith(_GRANT_DEPENDENT_SUFFIXES)


def _spread(m: Dict[str, float]) -> float:
    return (m["max"] - m["min"]) / abs(m["value"]) if m["value"] else 0.0


def judge(parent: Dict[str, float], change: Dict[str, float],
          better: str, bound: float) -> str:
    """Status of one bounded metric; both sides are ``{value, min, max}``."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change["value"] - parent["value"]) / abs(parent["value"])
    if worse_by > bound:
        return "REGRESSED"
    if max(_spread(parent), _spread(change)) > bound:
        all_better = (change["max"] < parent["min"] if better == "lower"
                      else change["min"] > parent["max"])
        return "better" if all_better else "unresolved"
    return "better" if worse_by < -bound else "unchanged"


def _fmt(m: Dict[str, float]) -> str:
    return f"{m['value']:.6g} [{m['min']:.6g}..{m['max']:.6g}]"


def compare(parent: Dict[str, Any], change: Dict[str, Any],
            spec: Dict[str, Any]) -> Tuple[List[str], int]:
    """Rows of the comparison and the number of failures."""
    for key in ("seed", "scale", "trace"):
        if parent["header"][key] != change["header"][key]:
            raise SystemExit(
                f"bench.check: cannot compare: {key} is "
                f"{parent['header'][key]} in one file and "
                f"{change['header'][key]} in the other")
    defs = {d["name"]: d for d in spec["end_to_end"] + spec["per_layer"]}
    rows, failures = [], 0
    for workload, a in parent["workloads"].items():
        b = change["workloads"].get(workload)
        if b is None:
            rows.append(f"{workload:<18} (absent from the second file)")
            continue
        for key in sorted(set(a["exact"]) | set(b["exact"])):
            same = a["exact"].get(key) == b["exact"].get(key)
            failures += not same
            rows.append(f"{workload:<18} {key:<40} "
                        f"{'identical' if same else 'DIFFERS'}  "
                        f"{a['exact'].get(key)} | {b['exact'].get(key)}")
        for name, ma in a["metrics"].items():
            mb, d = b["metrics"][name], defs[name]
            if is_exact(name, a["shards"]):
                status = "identical" if ma["value"] == mb["value"] else "DIFFERS"
            elif "bound" in d:
                status = judge(ma, mb, d["better"], d["bound"])
            else:
                status = "info"
            failures += status in ("DIFFERS", "REGRESSED")
            rows.append(f"{workload:<18} {name:<40} {status:<11}"
                        f"{_fmt(ma)} | {_fmt(mb)} {d['unit']}")
    return rows, failures


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    documents = []
    for path in paths:
        with open(path) as handle:
            documents.append(json.load(handle))
    failures = 0
    for path, change in zip(paths[1:], documents[1:]):
        print(f"== {paths[0]} (parent) | {path}")
        rows, failed = compare(documents[0], change, spec)
        print("\n".join(rows))
        failures += failed
    print(f"\n{failures} metric(s) differ or regressed" if failures
          else "\nno exact value differs, no metric regressed beyond its bound")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
