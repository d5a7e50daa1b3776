"""E20 — the four-thread daemon design (§2.1.1).

The paper separates command, control, and data threads "to take advantage
of concurrency within multiprocessor machines ... and to separate
communications from control and data streaming".  Measure:

* command throughput on a 1-core vs 2-core host (the concurrency claim);
* data-stream ingestion while the control thread is busy (the separation
  claim): a long command must not stall the UDP data path.
"""

import numpy as np
import pytest

from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.metrics import ResultTable, summarize
from repro.services import dsp
from repro.services.streams import MediaChunk
from tests.core.conftest import EchoDaemon


def build(cores, seed=110):
    env = ACEEnvironment(seed=seed)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    host = env.add_workstation("srv", room="lab", bogomips=800.0, cores=cores,
                               monitors=False)
    echo = EchoDaemon(env.ctx, "echo", host, room="lab")
    env.add_daemon(echo)
    env.boot()
    return env, echo


def test_e20_cores_help_throughput(benchmark, table_printer):
    table = table_printer(ResultTable(
        "E20: command throughput vs host cores (4 concurrent clients, 5 s)",
        ["cores", "commands_served", "p95_ms"],
    ))

    def run():
        rows = []
        for cores in (1, 2):
            env, echo = build(cores)
            latencies = []
            stop_at = env.sim.now + 5.0

            def client_loop(idx):
                client = env.client(env.net.host("infra"), principal=f"c{idx}")
                conn = yield from client.connect(echo.address)
                while env.sim.now < stop_at:
                    t0 = env.sim.now
                    yield from conn.call(ACECmdLine("echo", text="x"))
                    latencies.append(env.sim.now - t0)
                conn.close()

            for i in range(4):
                env.sim.process(client_loop(i), name=f"c{i}")
            env.sim.run(until=stop_at + 2.0)
            rows.append((cores, len(latencies), summarize(latencies).p95 * 1e3))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for cores, served, p95 in rows:
        table.add(cores, served, round(p95, 3))
    # Shape: the multithreaded daemon exploits the second core.
    assert rows[1][1] >= rows[0][1]


def test_e20_data_thread_survives_busy_control_thread(benchmark, table_printer):
    """While the control thread executes a 2 s command, the data thread
    keeps ingesting UDP chunks (on a 2-core host) — the separation works."""
    table = table_printer(ResultTable(
        "E20: UDP ingestion during a 2 s blocking command",
        ["during", "chunks_ingested"],
    ))

    def run():
        env, echo = build(cores=2, seed=111)
        # Count datagrams the echo daemon sees via a tiny subclass hook.
        seen = []
        original = echo.on_datagram

        def counting(source, payload):
            seen.append(env.sim.now)
            return original(source, payload)

        echo.on_datagram = counting
        sock = env.net.bind_datagram(env.net.host("infra"))

        def blocking_client():
            client = env.client(env.net.host("infra"), principal="blocker")
            yield from client.call(
                echo.address, ACECmdLine("slowEcho", text="x", delay=2.0))

        def streamer():
            for i in range(50):
                chunk = MediaChunk.from_audio(
                    np.zeros(dsp.CHUNK_SAMPLES, np.float32), i, 0.0)
                yield from sock.send(echo.address, chunk)
                yield env.sim.timeout(0.02)

        t0 = env.sim.now
        env.sim.process(blocking_client(), name="blocker")
        env.sim.process(streamer(), name="streamer")
        env.run_for(4.0)
        during = sum(1 for t in seen if t0 <= t <= t0 + 2.0)
        return during

    during = benchmark.pedantic(run, rounds=1, iterations=1)
    table.add("2 s slowEcho in flight", during)
    # Shape: the data path kept flowing (>80% of the offered chunks).
    assert during >= 40


def test_e20_single_queue_ablation(benchmark, table_printer):
    """A single-thread daemon (commands processed inline in the reader,
    no separate control queue) serializes differently: with one client the
    difference is nil, with many it shows in tail latency spread."""
    table = table_printer(ResultTable(
        "E20: per-client fairness across 8 clients (stddev of means, ms)",
        ["design", "fairness_std_ms"],
    ))

    def run():
        env, echo = build(cores=1, seed=112)
        per_client = {i: [] for i in range(8)}
        stop_at = env.sim.now + 5.0

        def client_loop(idx):
            client = env.client(env.net.host("infra"), principal=f"c{idx}")
            conn = yield from client.connect(echo.address)
            while env.sim.now < stop_at:
                t0 = env.sim.now
                yield from conn.call(ACECmdLine("echo", text="x"))
                per_client[idx].append(env.sim.now - t0)
            conn.close()

        for i in range(8):
            env.sim.process(client_loop(i), name=f"c{i}")
        env.sim.run(until=stop_at + 2.0)
        means = [np.mean(v) for v in per_client.values() if v]
        return float(np.std(means)) * 1e3

    fairness = benchmark.pedantic(run, rounds=1, iterations=1)
    table.add("shared control queue (FIFO)", round(fairness, 4))
    # Shape: the shared FIFO control queue is fair across clients.
    assert fairness < 5.0
