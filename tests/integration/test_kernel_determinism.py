"""Determinism regression for the kernel's ready queues (E24).

Their whole contract is "same total order, cheaper": the ready-queue/heap
split must not perturb a single delivery.  We prove it against the
heap-only oracle (``tests/sim/heap_only.py``) on two very different
workloads:

* Scenario 1 (the §7.1 new-user story) with full tracing — the entire
  finished-span stream, serialized through the NetLogger wire format and
  hashed, must be bit-identical between the oracle and the kernel.
* The E21 seeded chaos run (gray failure + crash + flaky link with
  retries, breakers, and deadlines on top) — the per-call record stream
  must be identical, because fault injection samples the deterministic
  RNG in delivery order: one swapped delivery cascades into a visibly
  different run.
"""

import hashlib

from repro.env.scenarios import scenario_1_new_user, standard_environment
from repro.obs import span_to_wire

from tests.core.test_chaos_recovery import run_once
from tests.sim.heap_only import heap_only_kernel  # noqa: F401 - fixture


def _scenario1_fingerprint():
    env = standard_environment(seed=221).boot()
    result = env.run(scenario_1_new_user(env))
    digest = hashlib.sha256()
    for span in env.obs.tracer.spans:
        digest.update(span_to_wire(span).encode())
        digest.update(b"\n")
    return (
        digest.hexdigest(),
        len(env.obs.tracer.spans),
        result["workspace"],
        result["t_total"],
        env.sim.counters(),
    )


def test_scenario1_trace_identical_across_kernel_paths(heap_only_kernel,
                                                       monkeypatch):
    slow_hash, slow_n, slow_ws, slow_t, slow_counters = _scenario1_fingerprint()
    monkeypatch.undo()  # back to the kernel's own scheduler
    fast_hash, fast_n, fast_ws, fast_t, fast_counters = _scenario1_fingerprint()

    assert slow_n == fast_n > 0
    assert slow_ws == fast_ws
    assert slow_t == fast_t
    assert slow_hash == fast_hash
    # Both runs did the same logical work, via different machinery.
    assert slow_counters["events_scheduled"] == fast_counters["events_scheduled"]
    assert slow_counters["events_delivered"] == fast_counters["events_delivered"]
    assert slow_counters["ready_hits"] == 0
    assert fast_counters["ready_hits"] > 0
    assert fast_counters["relays_avoided"] > 0


def _chaos_fingerprint():
    ace, result, _t0 = run_once(seed=11)
    rows = [(r.client, r.start, r.elapsed, r.ok) for r in result.records]
    return rows, result.hung, ace.sim.counters()


def test_chaos_run_identical_across_kernel_paths(heap_only_kernel, monkeypatch):
    slow_rows, slow_hung, slow_counters = _chaos_fingerprint()
    monkeypatch.undo()
    fast_rows, fast_hung, fast_counters = _chaos_fingerprint()

    assert len(slow_rows) > 200
    assert slow_rows == fast_rows
    assert slow_hung == fast_hung == 0
    assert slow_counters["events_scheduled"] == fast_counters["events_scheduled"]
    assert slow_counters["ready_hits"] == 0
    assert fast_counters["ready_hits"] > 0
