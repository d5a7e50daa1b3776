"""Determinism regression for the kernel's fast paths (E24).

Their whole contract is "same total order, cheaper": neither the
ready-queue/heap split nor resuming a parked reader inside a message's
delivery may perturb a single delivery.  We prove it against two
test-side oracles — the heap-only scheduler (``tests/sim/heap_only.py``)
and the scheduled hand-off (``tests/sim/scheduled_handoff.py``) — on two
very different workloads:

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
from tests.sim.scheduled_handoff import scheduled_handoff  # noqa: F401 - fixture


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


def test_scenario1_trace_identical_with_scheduled_handoff(scheduled_handoff,
                                                          monkeypatch):
    slow_hash, slow_n, slow_ws, slow_t, slow_counters = _scenario1_fingerprint()
    parked = scheduled_handoff.parked_arrivals
    monkeypatch.undo()  # back to Store.deliver
    fast_hash, fast_n, fast_ws, fast_t, fast_counters = _scenario1_fingerprint()

    assert (slow_hash, slow_n, slow_ws, slow_t) == (fast_hash, fast_n, fast_ws, fast_t)
    # One event saved per arrival that found its reader parked, no other.
    assert parked > 0 and scheduled_handoff.parked_arrivals == parked
    for counter in ("events_scheduled", "events_delivered", "ready_hits"):
        assert slow_counters[counter] - fast_counters[counter] == parked
    assert slow_counters["heap_pushes"] == fast_counters["heap_pushes"]


def test_chaos_run_identical_with_scheduled_handoff(scheduled_handoff,
                                                    monkeypatch):
    slow_rows, slow_hung, slow_counters = _chaos_fingerprint()
    parked = scheduled_handoff.parked_arrivals
    monkeypatch.undo()
    fast_rows, fast_hung, fast_counters = _chaos_fingerprint()

    assert len(slow_rows) > 200
    assert slow_rows == fast_rows
    assert slow_hung == fast_hung == 0
    assert parked > 0
    assert (slow_counters["events_scheduled"]
            - fast_counters["events_scheduled"]) == parked
