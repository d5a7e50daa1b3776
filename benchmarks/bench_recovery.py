"""E26 — self-healing supervision plane (tracked).

Kill-sweep: every supervised daemon type (RoomDB, WSS, a persistent-store
replica) is abruptly killed mid-workload while clients keep calling it
with idempotent resilient retries.  Per daemon type we measure, in
deterministic sim time:

* **MTTR** — the client-observed outage: from the kill to the first
  command completed against the reincarnation.  Bounded by the suspicion
  window plus heartbeat staleness plus restart cost.
* **failed commands** — commands that permanently failed (target: zero;
  the retry budget must absorb the whole outage).
* **exactly-once replay** — a command stamped before the kill is re-sent
  to the reincarnation; the reply must come from the checkpointed dedup
  cache (hit counter +1), proving the retry replayed instead of
  re-executing.

The report is ``BENCH_E26.json``; its guard
(``benchmarks/conftest.py:record``) flags an MTTR more than 20% above the
committed baseline.  ``ACE_BENCH_SHORT=1`` shrinks the workloads.
"""

import os

from repro.core.policy import CallPolicy
from repro.env import ACEEnvironment
from repro.faults.controller import ChaosController
from repro.faults.plan import FaultPlan
from repro.lang import ACECmdLine
from repro.lang.command import CLIENT_ID_ARG, CLIENT_SEQ_ARG, is_ok
from repro.metrics import ResultTable

from benchmarks.conftest import record

SHORT = bool(os.environ.get("ACE_BENCH_SHORT"))
DURATION = 12.0 if SHORT else 20.0
N_CLIENTS = 4 if SHORT else 8
KILL_AT = 4.0
THINK_TIME = 0.05

LEASE = 2.0
SUSPICION = 2.5
CHECK_INTERVAL = 0.5
CHECKPOINT_INTERVAL = 1.0
#: suspicion window + heartbeat staleness (one renew interval) + sweep
#: granularity + restart cost headroom
MTTR_BOUND_S = SUSPICION + LEASE * 0.5 + CHECK_INTERVAL + 1.5

#: the whole outage must fit inside one call's retry budget
WORKLOAD_POLICY = CallPolicy(
    deadline=10.0, attempt_timeout=0.5, max_attempts=24,
    backoff_base=0.05, backoff_max=0.4, breaker_threshold=0,
)


#: the kill-sweep: daemon name -> liveness command aimed at it
SWEEP = {
    "roomdb": ACECmdLine("lookupRoom", room="lab"),
    "wss": ACECmdLine("listWorkspaces", user="ada"),
    "ps1": ACECmdLine("psStats"),
}


def build_env(seed):
    env = ACEEnvironment(seed=seed, lease_duration=LEASE)
    env.add_infrastructure()
    env.add_directory_watcher()
    env.add_persistent_store(replicas=2)
    env.boot()
    supervisors = env.enable_supervision(
        suspicion_window=SUSPICION, check_interval=CHECK_INTERVAL,
        checkpoint_interval=CHECKPOINT_INTERVAL,
    )
    return env, supervisors


def run_kill(target: str, probe: ACECmdLine, seed: int) -> dict:
    env, supervisors = build_env(seed)
    address = env.daemons[target].address
    supervisor = supervisors[env.daemons[target].host.name]
    caller_host = env.daemons["asd"].host
    records = []  # (start, end, ok)

    setup = env.client(caller_host, principal="setup")
    env.run(setup.call(
        env.ctx.roomdb_address,
        ACECmdLine("registerRoom", room="lab", building="b1",
                   dims=(4.0, 5.0, 3.0)),
    ))

    def client_loop(i):
        client = env.client(caller_host, principal=f"load{i}")
        end_at = env.sim.now + DURATION
        while env.sim.now < end_at:
            t0 = env.sim.now
            try:
                reply = yield from client.call(
                    address, probe, policy=WORKLOAD_POLICY, check=False
                )
                ok = is_ok(reply)
            except Exception:
                ok = False
            records.append((t0, env.sim.now, ok))
            yield env.ctx.sim.timeout(THINK_TIME)

    for i in range(N_CLIENTS):
        env.sim.process(client_loop(i), name=f"load{i}")
    controller = ChaosController(
        env.net, FaultPlan().kill_daemon(target, at=KILL_AT),
        daemons=env.daemons,
    ).start()
    kill_time = controller.started_at + KILL_AT

    # A stamped command issued shortly before the kill; re-sent right after
    # recovery it must be answered from the checkpointed dedup cache
    # (exactly-once proof).  The window is bounded, so the check runs close
    # to the restart — before the ongoing workload can evict the entry.
    env.run_for(KILL_AT - 1.5)
    replay_client = env.client(caller_host, principal="replay")
    stamped = probe.with_args(**{CLIENT_ID_ARG: "replay.c0", CLIENT_SEQ_ARG: 1})
    first = env.run(replay_client.call(address, stamped))

    # The resilient call rides out whatever is left of the outage and lands
    # on the reincarnation as soon as it serves again.
    env.run_for(1.5 + 3.0)
    hits_before = env.obs.metrics.counter(f"daemon.{target}.dedup.hits").value
    replay = env.run(replay_client.call(
        address, stamped, policy=WORKLOAD_POLICY, check=False
    ))
    hits_after = env.obs.metrics.counter(f"daemon.{target}.dedup.hits").value
    reincarnation = env.daemons[target]
    env.run_for(DURATION + 5.0 - (KILL_AT + 3.0))

    recovered = [end for _, end, ok in records if ok and end > kill_time]
    failed = sum(1 for _, _, ok in records if not ok)
    return {
        "calls": len(records),
        "failed": failed,
        "mttr_s": round(min(recovered) - kill_time, 3) if recovered else None,
        "restarts": supervisor.restarts,
        "false_suspicions": supervisor.false_suspicions,
        "incarnation": reincarnation.incarnation,
        "dedup_replay_ok": (
            replay.to_string() == first.to_string()
            and hits_after == hits_before + 1
        ),
    }


def test_e26_recovery(benchmark, table_printer):
    def run():
        return {
            "experiment": "E26",
            "short": SHORT,
            "mttr_bound_s": MTTR_BOUND_S,
            "sweep": {
                target: run_kill(target, probe, seed=60 + i)
                for i, (target, probe) in enumerate(sorted(SWEEP.items()))
            },
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    table = table_printer(ResultTable(
        f"E26: kill-sweep recovery ({N_CLIENTS} clients, "
        f"suspicion {SUSPICION:.1f} sim-s)",
        ["daemon", "calls", "failed", "mttr_s", "restarts", "inc", "replay"],
    ))
    for target, row in report["sweep"].items():
        table.add(
            target, row["calls"], row["failed"],
            row["mttr_s"] if row["mttr_s"] is not None else "never",
            row["restarts"], row["incarnation"],
            "dedup" if row["dedup_replay_ok"] else "RE-EXEC",
        )

    for target, row in report["sweep"].items():
        assert row["restarts"] >= 1, f"{target} was never restarted"
        assert row["incarnation"] >= 1, f"{target} kept incarnation 0"
        assert row["mttr_s"] is not None, f"{target} never recovered"
        assert row["mttr_s"] <= MTTR_BOUND_S, (
            f"{target} MTTR {row['mttr_s']:.2f}s exceeds the "
            f"{MTTR_BOUND_S:.2f}s bound")
        assert row["failed"] == 0, (
            f"{target}: {row['failed']} commands permanently failed")
        assert row["dedup_replay_ok"], (
            f"{target}: post-restart replay re-executed instead of "
            f"answering from the checkpointed dedup cache")

    record(report, grows=["sweep.*.mttr_s"])
