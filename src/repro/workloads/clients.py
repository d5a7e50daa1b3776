"""Synthetic client populations for scale experiments (E18 and friends).

Two standard shapes:

* **closed loop** — N clients, each issuing a request, waiting for the
  reply, thinking, repeating: models interactive users.
* **open loop** — Poisson arrivals at a fixed offered rate regardless of
  completion: models aggregate environment activity and finds saturation.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from repro.lang import ACECmdLine
from repro.core.client import CallError, ServiceClient
from repro.metrics import LatencyRecorder
from repro.net import Address


def closed_loop_clients(
    env,
    *,
    n_clients: int,
    duration: float,
    target: Address,
    make_command: Callable[[int, int], ACECmdLine],
    think_time: float = 0.1,
    client_host_name: Optional[str] = None,
    recorder: Optional[LatencyRecorder] = None,
    trace_name: Optional[str] = None,
) -> LatencyRecorder:
    """Run N think-loop clients against ``target`` for ``duration`` sim-s.

    ``make_command(client_index, iteration)`` builds each request.
    ``trace_name`` (when set) wraps every request in a root trace span named
    ``{trace_name}`` — the knob E22 uses to measure tracing overhead.
    Returns the latency recorder (per-request response times).
    """
    recorder = recorder or LatencyRecorder()
    sim = env.sim
    stop_at = sim.now + duration
    host = env.net.host(client_host_name) if client_host_name else env.net.hosts[
        sorted(env.net.hosts)[0]
    ]
    think_rng = env.rng.py("workload.think")

    def one_client(index: int) -> Generator:
        client = ServiceClient(env.ctx, host, principal=f"load-{index}")
        try:
            conn = yield from client.connect(target)
        except CallError:
            return
        iteration = 0
        try:
            while sim.now < stop_at:
                command = make_command(index, iteration)
                t0 = sim.now
                root = (
                    client.begin_trace(trace_name, client=index, iteration=iteration)
                    if trace_name
                    else None
                )
                status = "ok"
                try:
                    yield from conn.call(command)
                except CallError:
                    status = "cmdFailed"  # denials still count as served traffic
                finally:
                    client.end_trace(root, status=status)
                recorder.record(sim.now - t0)
                iteration += 1
                yield sim.timeout(think_rng.expovariate(1.0 / think_time) if think_time > 0 else 0)
        except CallError:
            return
        finally:
            conn.close()

    procs = [sim.process(one_client(i), name=f"load-{i}") for i in range(n_clients)]
    sim.run(until=stop_at + 5.0)
    del procs
    return recorder


def open_loop_arrivals(
    env,
    *,
    rate_per_s: float,
    duration: float,
    target: Address,
    make_command: Callable[[int], ACECmdLine],
    client_host_name: Optional[str] = None,
) -> LatencyRecorder:
    """Poisson arrivals at ``rate_per_s``; each arrival is one connect +
    call + close.  Returns per-request latencies (drops excluded)."""
    recorder = LatencyRecorder()
    sim = env.sim
    stop_at = sim.now + duration
    host = env.net.host(client_host_name) if client_host_name else env.net.hosts[
        sorted(env.net.hosts)[0]
    ]
    arrival_rng = env.rng.py("workload.arrivals")

    def one_shot(index: int) -> Generator:
        client = ServiceClient(env.ctx, host, principal=f"arrival-{index}")
        t0 = sim.now
        try:
            conn = yield from client.connect(target)
            try:
                yield from conn.call(make_command(index))
            finally:
                conn.close()
        except CallError:
            return
        recorder.record(sim.now - t0)

    def generator_proc() -> Generator:
        index = 0
        while sim.now < stop_at:
            yield sim.timeout(arrival_rng.expovariate(rate_per_s))
            sim.process(one_shot(index), name=f"arrival-{index}")
            index += 1

    sim.process(generator_proc(), name="arrival-generator")
    sim.run(until=stop_at + 10.0)
    return recorder


def store_workload(
    env,
    *,
    n_clients: int,
    duration: float,
    n_paths: int = 64,
    write_fraction: float = 0.2,
    think_time: float = 0.01,
    cache_reads: bool = False,
    recorder: Optional[LatencyRecorder] = None,
) -> LatencyRecorder:
    """E25's data-plane mix: N closed-loop clients doing put/get against
    the (possibly sharded) persistent store via :meth:`env.store_client`,
    so every request routes per-key the way real consumers do.

    Returns the latency recorder; ``recorder.count`` is the completed-op
    count for throughput math.  Ops that found every replica down are not
    recorded."""
    recorder = recorder or LatencyRecorder()
    sim = env.sim
    stop_at = sim.now + duration
    host = env.net.hosts[sorted(env.net.hosts)[0]]
    think_rng = env.rng.py("workload.store-think")
    mix_rng = env.rng.py("workload.store-mix")

    def one_client(index: int) -> Generator:
        client = env.store_client(
            host, principal=f"store-load-{index}", cache_reads=cache_reads
        )
        iteration = 0
        while sim.now < stop_at:
            path = f"/bench/c{index}/o{iteration % n_paths}"
            t0 = sim.now
            try:
                if mix_rng.random() < write_fraction:
                    yield from client.put(path, {"v": str(iteration)})
                else:
                    yield from client.get(path)
            except CallError:
                yield sim.timeout(0.1)
                continue
            recorder.record(sim.now - t0)
            iteration += 1
            yield sim.timeout(
                think_rng.expovariate(1.0 / think_time) if think_time > 0 else 0
            )

    procs = [sim.process(one_client(i), name=f"store-load-{i}") for i in range(n_clients)]
    sim.run(until=stop_at + 5.0)
    del procs
    return recorder


def user_session_workload(
    env,
    *,
    n_users: int,
    duration: float,
    recorder: Optional[LatencyRecorder] = None,
) -> LatencyRecorder:
    """E18's 'hundreds of users' session mix against the central services:
    each user repeatedly looks a service up in the ASD, pings it, and
    checks their own record in the AUD."""
    recorder = recorder or LatencyRecorder()
    sim = env.sim
    stop_at = sim.now + duration
    asd = env.ctx.asd_address
    aud = env.daemons["aud"].address if "aud" in env.daemons else None
    think_rng = env.rng.py("workload.session-think")
    host = env.net.hosts[sorted(env.net.hosts)[0]]

    def one_user(index: int) -> Generator:
        client = ServiceClient(env.ctx, host, principal=f"user-{index}")
        while sim.now < stop_at:
            t0 = sim.now
            try:
                yield from client.call(asd, ACECmdLine("lookup", cls="HRM"))
                if aud is not None:
                    yield from client.call(aud, ACECmdLine("listUsers"))
            except CallError:
                yield sim.timeout(0.5)
                continue
            recorder.record(sim.now - t0)
            yield sim.timeout(think_rng.expovariate(1.0))  # ~1 op/s/user
        client.close_channels()

    for i in range(n_users):
        sim.process(one_user(i), name=f"user-{i}")
    sim.run(until=stop_at + 5.0)
    return recorder
