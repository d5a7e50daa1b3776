"""E2/E17/A1 — service discovery (Fig. 7, §2.4, §8.4).

* E2: ASD lookup latency vs directory size; lease expiry purges crashed
  services within one lease duration.
* E17: ASD (fixed address, text records) vs Jini (multicast discovery,
  serialized proxies) — registration/lookup bytes and latency.
* A1: lease-duration sweep — renewal traffic vs staleness window.
"""

import pytest

from repro.baselines.jini import JiniLookupService, JiniParticipant, JiniServiceProxy
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.metrics import ResultTable, summarize
from repro.net import Address
from repro.services.asd import asd_lookup
from tests.core.conftest import EchoDaemon


def build_env(n_services, lease_duration=10.0, seed=1):
    env = ACEEnvironment(seed=seed, lease_duration=lease_duration)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    host = env.add_workstation("farm", room="lab", bogomips=3200.0, cores=4,
                               monitors=False)
    daemons = []
    for i in range(n_services):
        daemon = EchoDaemon(env.ctx, f"svc{i:04d}", host, room="lab")
        env.add_daemon(daemon)
        daemons.append(daemon)
    env.boot(settle=3.0)
    return env, daemons


def test_e2_lookup_latency_vs_directory_size(benchmark, table_printer):
    table = table_printer(ResultTable(
        "E2: ASD lookup latency vs registered services",
        ["services", "lookup_ms_p50", "lookup_ms_p95", "found"],
    ))

    def run():
        rows = []
        for n_services in (10, 100, 400):
            env, _ = build_env(n_services)
            latencies = []
            found = 0

            def measure():
                nonlocal found
                client = env.client(env.net.host("infra"), principal="probe")
                for _ in range(30):
                    t0 = env.sim.now
                    records = yield from asd_lookup(client, env.asd_address, cls="Echo")
                    latencies.append(env.sim.now - t0)
                    found = len(records)

            env.run(measure())
            summary = summarize(latencies)
            rows.append((n_services, summary.p50 * 1e3, summary.p95 * 1e3, found))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for n, p50, p95, found in rows:
        table.add(n, round(p50, 4), round(p95, 4), found)
        assert found == n
    # Shape: latency grows sub-linearly (reply size dominates, not search).
    assert rows[-1][1] < rows[0][1] * 40


def test_e2_lease_purges_crashed_services(benchmark, table_printer):
    table = table_printer(ResultTable(
        "E2: crashed services purged by lease expiry",
        ["phase", "registered", "sim_time_s"],
    ))

    def run():
        env, daemons = build_env(50, lease_duration=8.0)
        asd = env.daemon("asd")
        before = len([n for n in asd.records if n.startswith("svc")])
        t_crash = env.sim.now
        env.net.crash_host("farm")
        # All 50 gone within ~1 lease + sweep interval.
        env.run_for(8.0 * 1.5)
        after = len([n for n in asd.records if n.startswith("svc")])
        return before, after, env.sim.now - t_crash

    before, after, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    table.add("before crash", before, 0.0)
    table.add("after 1.5 leases", after, round(elapsed, 2))
    assert before == 50 and after == 0


def test_e17_asd_vs_jini(benchmark, table_printer):
    table = table_printer(ResultTable(
        "E17: discovery protocols head to head (one register + one lookup)",
        ["protocol", "register_bytes", "lookup_reply_bytes", "discover_ms"],
    ))

    def run():
        # --- ACE/ASD leg -------------------------------------------------
        env, _ = build_env(0)
        asd_register = ACECmdLine(
            "register", name="cam", host="farm", port=7000, room="hawk",
            cls="ACEService/Device/PTZCamera/VCC4",
        )
        reg_bytes_asd = asd_register.wire_size
        lookup_bytes_asd = None
        t_asd = None

        def asd_flow():
            nonlocal lookup_bytes_asd, t_asd
            client = env.client(env.net.host("farm"), principal="cam")
            yield from client.call(env.asd_address, asd_register)
            t0 = env.sim.now
            reply = yield from client.call(
                env.asd_address, ACECmdLine("lookup", cls="PTZCamera")
            )
            t_asd = env.sim.now - t0
            lookup_bytes_asd = reply.wire_size

        env.run(asd_flow())

        # --- Jini leg -----------------------------------------------------
        from repro.net import Network
        from repro.sim import RngRegistry, Simulator

        sim = Simulator()
        net = Network(sim, RngRegistry(2))
        net.make_host("lookup-host")
        net.make_host("svc-host")
        lookup = JiniLookupService(net, net.host("lookup-host"))
        lookup.start()
        proxy = JiniServiceProxy("PTZCamera", "cam", Address("svc-host", 7000), {})
        results = {}

        def jini_flow():
            svc = JiniParticipant(net, net.host("svc-host"))
            yield from svc.discover()
            yield from svc.join(proxy)
            t0 = sim.now
            client = JiniParticipant(net, net.host("svc-host"))
            yield from client.discover()
            proxies = yield from client.lookup("PTZCamera")
            results["t"] = sim.now - t0
            results["lookup_bytes"] = sum(p.wire_size() for p in proxies)
            svc.close()
            client.close()

        sim.run_process(jini_flow(), timeout=60.0)
        return (reg_bytes_asd, lookup_bytes_asd, t_asd,
                proxy.wire_size(), results["lookup_bytes"], results["t"])

    (reg_asd, look_asd, t_asd, reg_jini, look_jini, t_jini) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    table.add("ACE ASD", reg_asd, look_asd, round(t_asd * 1e3, 4))
    table.add("Jini", reg_jini, look_jini, round(t_jini * 1e3, 4))
    # Shape: Jini ships kilobytes of proxy; the ASD ships a one-line record.
    assert look_jini > 10 * look_asd
    assert reg_jini > 10 * reg_asd


def test_a1_lease_duration_tradeoff(benchmark, table_printer):
    """A1: short leases purge fast but cost renewal traffic."""
    table = table_printer(ResultTable(
        "A1: lease duration vs renewal traffic and staleness",
        ["lease_s", "renewals_per_svc_per_min", "staleness_window_s"],
    ))

    def run():
        rows = []
        for lease in (2.0, 8.0, 30.0):
            env, daemons = build_env(20, lease_duration=lease, seed=3)
            asd = env.daemon("asd")
            start_renewals = sum(
                l.renewals for l in (asd.leases.get(d.name) for d in daemons) if l
            )
            t0 = env.sim.now
            env.run_for(60.0)
            end_renewals = sum(
                l.renewals for l in (asd.leases.get(d.name) for d in daemons) if l
            )
            per_svc_per_min = (end_renewals - start_renewals) / 20 / ((env.sim.now - t0) / 60)
            # Staleness: crash one service, time until it leaves the directory.
            victim = daemons[0]
            env.net.crash_host("farm")
            t_crash = env.sim.now
            while victim.name in asd.records and env.sim.now < t_crash + lease * 3:
                env.run_for(0.25)
            rows.append((lease, per_svc_per_min, env.sim.now - t_crash))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for lease, renewals, staleness in rows:
        table.add(lease, round(renewals, 2), round(staleness, 2))
    # Shape: renewal traffic falls and staleness grows with the lease.
    assert rows[0][1] > rows[-1][1]
    assert rows[0][2] < rows[-1][2]
