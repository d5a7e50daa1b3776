"""E16 — distributed placement vs centralized gateway (§8.1 vs §8.3).

The paper argues that running daemons near their devices "not only reduces
network traffic to local devices ... but also makes response times to
these local services much more efficient" compared with centralizing
computation (Ninja bases / WebSphere).  Sweep the backbone latency and
count backbone bytes per device command for both architectures.
"""

import pytest

from repro.baselines.central import CentralGatewayDaemon
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.metrics import ResultTable, summarize
from repro.services.devices import VCC4CameraDaemon


def build(backbone_ms, seed=70):
    env = ACEEnvironment(seed=seed,
                         net_kwargs={"backbone_latency": backbone_ms * 1e-3})
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    room = env.add_workstation("podium", room="hawk", segment="east", monitors=False)
    dc = env.add_workstation("bighost", room="dc", segment="west",
                             bogomips=3200.0, cores=4, monitors=False)
    camera = env.add_device(VCC4CameraDaemon, "cam", room, room="hawk")
    gateway = env.add_daemon(CentralGatewayDaemon(env.ctx, "gateway", dc, room="dc"))
    env.boot()

    def setup():
        client = env.client(room, principal="setup")
        yield from client.call(
            gateway.address,
            ACECmdLine("registerDevice", device="cam", host=room.name, port=camera.port),
        )
        yield from client.call(camera.address, ACECmdLine("power", state="on"))

    env.run(setup())
    return env, room, camera, gateway


def drive(env, room, target_fn, n=30):
    """Issue n camera commands; returns (latencies, backbone bytes used)."""
    latencies = []
    backbone_before = env.net.stats.bytes_backbone

    def go():
        client = env.client(room, principal="user")
        for i in range(n):
            t0 = env.sim.now
            yield from target_fn(client, i)
            latencies.append(env.sim.now - t0)

    env.run(go(), timeout=600.0)
    return latencies, env.net.stats.bytes_backbone - backbone_before


def test_e16_latency_and_backbone_sweep(benchmark, table_printer):
    table = table_printer(ResultTable(
        "E16: device command cost, ACE-direct vs centralized gateway",
        ["backbone_ms", "direct_p50_ms", "central_p50_ms", "direct_bb_bytes",
         "central_bb_bytes"],
    ))

    def run():
        rows = []
        for backbone_ms in (1.0, 5.0, 20.0):
            env, room, camera, gateway = build(backbone_ms)

            def direct(client, i):
                yield from client.call(
                    camera.address, ACECmdLine("setZoom", factor=1.0 + (i % 9))
                )

            direct_lat, direct_bb = drive(env, room, direct)

            def central(client, i):
                yield from client.call(
                    gateway.address,
                    ACECmdLine("forward", device="cam",
                               command=f"setZoom factor={1.0 + (i % 9)};"),
                )

            central_lat, central_bb = drive(env, room, central)
            rows.append((
                backbone_ms,
                summarize(direct_lat).p50 * 1e3,
                summarize(central_lat).p50 * 1e3,
                direct_bb,
                central_bb,
            ))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for backbone_ms, d_p50, c_p50, d_bb, c_bb in rows:
        table.add(backbone_ms, round(d_p50, 3), round(c_p50, 3), d_bb, c_bb)
        # Shape: direct wins on latency everywhere and uses no backbone.
        assert d_p50 < c_p50
        assert d_bb == 0 and c_bb > 0
    # Shape: the centralized penalty grows with backbone latency.
    gaps = [c - d for _, d, c, _, _ in rows]
    assert gaps[0] < gaps[-1]
