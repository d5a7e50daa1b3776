"""Smoke test of the benchmark itself, at ``--scale 0.1``.

Run with ``python3 -m pytest -q bench/`` from the repository root (not
collected by the tier-1 ``testpaths``).  It runs every workload five times
(twice untraced and twice traced at one seed, once at another), so it takes
about a minute.
"""

import json
import re
import subprocess
import sys

import pytest

from bench import ROOT, load_spec
from bench.check import compare, is_exact, judge
from bench.layers import LAYERS, layer_of

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run_bench(tmp_path_factory, label, *extra):
    out = tmp_path_factory.mktemp("bench") / f"{label}.json"
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--scale", "0.1", "--seconds", "0",
         "--out", str(out), *extra],
        cwd=ROOT, text=True, capture_output=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text()), done.stdout


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return run_bench(tmp_path_factory, "a")


@pytest.fixture(scope="module")
def untraced_again(tmp_path_factory):
    return run_bench(tmp_path_factory, "b")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_bench(tmp_path_factory, "t", "--trace", "1")


def test_spec_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 1 <= SPEC["run_seconds"] <= 60
    names = WORKLOADS + [d["name"] for d in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for d in SPEC["end_to_end"]:
        assert set(d) == {"name", "unit", "better", "bound"}
        assert 0 < d["bound"] <= 0.25
    for d in SPEC["per_layer"]:
        assert set(d) == {"name", "unit", "better"}
    for d in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(d["unit"]) and d["better"] in ("lower", "higher")
    setup = [d for d in SPEC["end_to_end"] if d["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(d["bound"] for d in SPEC["end_to_end"])


@pytest.mark.parametrize("kind,section", [("untraced", "end_to_end"),
                                          ("traced", "per_layer")])
def test_every_spec_name_is_emitted_and_nothing_else(kind, section, request):
    document, stdout = request.getfixturevalue(kind)
    expected = {d["name"]: d["unit"] for d in SPEC[section]}
    assert list(document["workloads"]) == WORKLOADS
    for workload, result in document["workloads"].items():
        assert set(result["metrics"]) == set(expected), workload
        for name, metric in result["metrics"].items():
            assert metric["unit"] == expected[name]
            assert metric["min"] <= metric["value"] <= metric["max"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
    # the contract's result line: one per workload, the last one last
    lines = [json.loads(l) for l in stdout.splitlines() if l.startswith("{")]
    assert len(lines) == len(WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(expected)
        for metric in line["metrics"].values():
            assert set(metric) == {"value", "unit"}
    for key in ("seed", "scale", "seconds", "trace", "cores_available",
                "nproc", "python", "commit"):
        assert key in document["header"]


def test_end_to_end_metrics_are_never_zero(untraced):
    for result in untraced[0]["workloads"].values():
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_reproduces_every_exact_value(untraced, untraced_again,
                                                traced, tmp_path_factory):
    rows, failures = compare(untraced[0], untraced_again[0], SPEC)
    assert not [r for r in rows if "DIFFERS" in r]
    traced_again, _ = run_bench(tmp_path_factory, "t2", "--trace", "1")
    rows, _ = compare(traced[0], traced_again, SPEC)
    assert not [r for r in rows if "DIFFERS" in r]


def test_another_seed_changes_the_hashes(untraced, tmp_path_factory):
    other, _ = run_bench(tmp_path_factory, "c", "--seed", "30")
    for workload in WORKLOADS:
        a = untraced[0]["workloads"][workload]["exact"]
        b = other["workloads"][workload]["exact"]
        key = "namespace_hash" if workload == "store_mix" else "trace_hash"
        assert a[key] != b[key], workload
    with pytest.raises(SystemExit, match="seed"):
        compare(untraced[0], other, SPEC)


def test_one_and_two_shards_agree(untraced):
    one = untraced[0]["workloads"]["campus_pop"]
    two = untraced[0]["workloads"]["campus_pop_2shard"]
    assert one["exact"] == two["exact"]
    assert {"ops", "sim_p50_ms", "sim_p99_ms", "latency_hash",
            "trace_hash"} <= set(one["exact"])
    assert (one["metrics"]["sim_ops_per_sim_s"]["value"]
            == two["metrics"]["sim_ops_per_sim_s"]["value"])


def test_parallel_layer_is_idle_off_the_sharded_workload(traced):
    def layer(workload, name):
        return traced[0]["workloads"][workload]["metrics"][name]["value"]

    assert layer("campus_pop", "sim.parallel.boundary_msgs_per_op") == 0
    assert layer("campus_pop_2shard", "sim.parallel.boundary_msgs_per_op") > 0
    assert layer("campus_pop_2shard", "sim.parallel.speedup_vs_1shard") > 0
    for workload in ("room_planes", "store_mix"):
        for name in traced[0]["workloads"][workload]["metrics"]:
            if name.startswith("sim.parallel."):
                assert layer(workload, name) == 0, (workload, name)
    assert layer("room_planes", "recovery.restarts") == 0
    assert layer("room_planes", "obs.spans_per_op") > 0
    assert layer("store_mix", "store.put_sim_p50_ms") > 0


def test_layer_self_times_sum_to_the_profile_total(traced):
    for workload, result in traced[0]["workloads"].items():
        profile = result["profile"]
        assert profile["layers_s"] + profile["wait_s"] == \
            pytest.approx(profile["total_s"], rel=1e-9), workload
        assert result["metrics"]["trace_overhead_ratio"]["value"] > 1


def test_layer_of_assigns_every_file_to_one_layer():
    assert layer_of("/x/src/repro/sim/kernel.py") == "sim"
    assert layer_of("/x/src/repro/sim/parallel/sharded.py") == "sim.parallel"
    assert layer_of("/x/src/repro/obs/cluster/merge.py") == "obs"
    assert layer_of("/x/src/repro/env/environment.py") == "other"
    assert layer_of("/x/src/repro/metrics.py") == "other"
    assert layer_of("/usr/lib/python3.11/multiprocessing/connection.py") == "sim.parallel"
    assert layer_of("/usr/lib/python3.11/heapq.py") == "python"
    assert layer_of("/x/bench/workloads.py") == "python"
    assert all(layer_of(f"/x/src/repro/{p}/a.py") == p
               for p in LAYERS if "." not in p and p not in ("other", "python"))


def test_check_statuses():
    def m(value, lo, hi):
        return {"value": value, "min": lo, "max": hi}

    assert judge(m(100, 99, 101), m(101, 100, 102), "higher", 0.10) == "unchanged"
    assert judge(m(100, 99, 101), m(85, 84, 86), "higher", 0.10) == "REGRESSED"
    assert judge(m(100, 99, 101), m(120, 119, 121), "higher", 0.10) == "better"
    assert judge(m(100, 80, 120), m(101, 100, 102), "higher", 0.10) == "unresolved"
    assert judge(m(100, 80, 120), m(130, 125, 135), "higher", 0.10) == "better"
    assert judge(m(1.0, 0.9, 1.1), m(1.2, 1.1, 1.3), "lower", 0.05) == "REGRESSED"
    assert is_exact("sim_p99_ms") and is_exact("core.connects_per_op")
    assert is_exact("sim.calls_per_op", shards=1)
    assert not is_exact("sim.calls_per_op", shards=2)
    assert not is_exact("ops_per_host_s") and not is_exact("lang.self_host_us_per_op")
