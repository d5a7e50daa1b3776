"""X1 (extension) — mobile sockets (Chapter 9 future work).

The paper's wishlist: clients should "quickly resume their tasks with
other service instances" when a daemon dies.  Measure the client-visible
outage with a plain connection (must wait for the ASD lease to expire,
re-lookup by hand) vs a call that names the service class (the listed
instances are its replicas: immediate failover).
"""

import pytest

from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.metrics import ResultTable
from repro.core.client import FAILOVER_POLICY, CallError, Service
from repro.services.asd import asd_lookup
from tests.core.conftest import EchoDaemon


def build(lease_duration=10.0, seed=170):
    env = ACEEnvironment(seed=seed, lease_duration=lease_duration)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    for i in (1, 2):
        host = env.add_workstation(f"e{i}", room="lab", monitors=False)
        env.add_daemon(EchoDaemon(env.ctx, f"echo{i}", host, room="lab"))
    env.boot()
    return env


def test_x1_failover_outage(benchmark, table_printer):
    table = table_printer(ResultTable(
        "X1: client-visible outage after instance death (lease = 10 s)",
        ["client type", "outage_s"],
    ))

    def run():
        # --- a call that names the service, not an address -----------------
        env = build()
        client = env.client(env.net.host("infra"), principal="mobile")

        def mobile_session():
            echo = Service(cls="Echo")
            warm = yield from client.call(
                echo, ACECmdLine("echo", text="warm"), policy=FAILOVER_POLICY)
            t0 = env.sim.now
            env.net.crash_host(env.daemons[warm["by"]].host.name)
            yield from client.call(
                echo, ACECmdLine("echo", text="after"), policy=FAILOVER_POLICY)
            return env.sim.now - t0

        mobile_outage = env.run(mobile_session())

        # --- naive client: waits for the ASD to stop listing the dead one --
        env2 = build(seed=171)
        client2 = env2.client(env2.net.host("infra"), principal="naive")

        def naive_session():
            records = yield from asd_lookup(client2, env2.asd_address, cls="Echo")
            target = records[0]
            conn = yield from client2.connect(target.address)
            yield from conn.call(ACECmdLine("echo", text="warm"))
            t0 = env2.sim.now
            env2.net.crash_host(env2.daemons[target.name].host.name)
            # The naive strategy: retry lookup until the directory stops
            # listing the dead instance, then connect to a different one.
            while True:
                try:
                    yield from conn.call(ACECmdLine("echo", text="x"))
                    break
                except CallError:
                    pass
                listed = yield from asd_lookup(client2, env2.asd_address, cls="Echo")
                alive = [r for r in listed if r.name != target.name]
                if alive and target.name not in {r.name for r in listed}:
                    conn = yield from client2.connect(alive[0].address)
                    yield from conn.call(ACECmdLine("echo", text="after"))
                    break
                yield env2.sim.timeout(0.5)
            conn.close()
            return env2.sim.now - t0

        naive_outage = env2.run(naive_session(), timeout=600.0)
        return mobile_outage, naive_outage

    mobile_outage, naive_outage = benchmark.pedantic(run, rounds=1, iterations=1)
    table.add("mobile socket", round(mobile_outage, 3))
    table.add("naive (wait for lease purge)", round(naive_outage, 3))
    # Shape: the call recovers in one FAILOVER_POLICY.attempt_timeout
    # (1 s), far faster than waiting for lease expiry.
    assert mobile_outage < 1.5
    assert naive_outage > 5.0  # roughly a lease duration
    assert mobile_outage < naive_outage / 4
