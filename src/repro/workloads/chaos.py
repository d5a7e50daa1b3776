"""Closed-loop workload for chaos experiments (the E21 driver).

A population of clients issues request → reply → think against a primary
service, failing over to an optional secondary, while a
:class:`~repro.faults.ChaosController` breaks things underneath them.  Two
modes share the same traffic shape so runs are comparable:

* **resilient** — :meth:`~repro.core.client.ServiceClient.call` under a
  :class:`~repro.core.policy.CallPolicy` (deadline, retries, circuit
  breaker);
* **naive** — the same call with ``policy=None``: no deadline, the
  pre-policy behaviour: a stalled stream hangs the client forever.

Every completed call is timestamped into an
:class:`~repro.metrics.AvailabilityRecorder`; calls still in flight when
the run ends are counted as **hung** — the headline difference between the
two modes under gray failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.lang import ACECmdLine
from repro.core.client import FAILOVER_ERRORS, CallError, ServiceClient
from repro.core.policy import CallPolicy
from repro.metrics import AvailabilityRecorder
from repro.net import Address


@dataclass(frozen=True)
class CallRecord:
    """One completed (or cleanly failed) client call."""

    client: int
    start: float
    elapsed: float
    ok: bool
    error: str = ""


@dataclass
class ChaosRunResult:
    """Everything a chaos experiment needs to assert its recovery shape."""

    started_at: float
    ended_at: float
    records: List[CallRecord] = field(default_factory=list)
    availability: AvailabilityRecorder = field(default_factory=AvailabilityRecorder)
    #: calls still in flight when the run ended (never completed, never
    #: failed — the unbounded-hang signature of the naive mode)
    hung: int = 0

    @property
    def completed(self) -> int:
        return len(self.records)

    @property
    def delivered(self) -> int:
        return sum(1 for r in self.records if r.ok)

    def delivered_between(self, t0: float, t1: float) -> int:
        return sum(1 for r in self.records if r.ok and t0 <= r.start < t1)

    def availability_between(self, t0: float, t1: float) -> float:
        return self.availability.availability_between(t0, t1)

    def latencies(self, only_ok: bool = True) -> List[float]:
        return sorted(
            r.elapsed for r in self.records if r.ok or not only_ok
        )

    def latency_percentile(self, q: float, only_ok: bool = True) -> float:
        """Percentile (``q`` in [0, 100]) of recorded call latencies."""
        values = self.latencies(only_ok)
        if not values:
            return 0.0
        index = min(len(values) - 1, int(round(q / 100.0 * (len(values) - 1))))
        return values[index]

    @property
    def max_elapsed(self) -> float:
        return max((r.elapsed for r in self.records), default=0.0)


def run_chaos_workload(
    env,
    *,
    n_clients: int,
    duration: float,
    primary: Address,
    secondary: Optional[Address] = None,
    make_command: Optional[Callable[[int, int], ACECmdLine]] = None,
    policy: Optional[CallPolicy] = None,
    resilient: bool = True,
    think_time: float = 0.2,
    client_host_name: Optional[str] = None,
    bucket: float = 1.0,
    grace: float = 5.0,
) -> ChaosRunResult:
    """Drive ``n_clients`` closed-loop clients for ``duration`` sim-seconds.

    ``make_command(client_index, iteration)`` builds each request (default:
    an ``echo``).  The sim is run to ``duration + grace`` so late replies
    and backoffs drain; whatever is *still* in flight then counts as hung.
    """
    sim = env.sim
    start_at = sim.now
    stop_at = start_at + duration
    host = (
        env.net.host(client_host_name)
        if client_host_name
        else env.net.hosts[sorted(env.net.hosts)[0]]
    )
    make_command = make_command or (
        lambda i, k: ACECmdLine("echo", text=f"chaos.{i}.{k}")
    )
    think_rng = env.rng.py("workload.chaos.think")
    result = ChaosRunResult(
        started_at=start_at,
        ended_at=stop_at,
        availability=AvailabilityRecorder(bucket=bucket),
    )
    in_flight: Dict[Tuple[int, int], float] = {}
    policy = (policy or CallPolicy()) if resilient else None

    def one_call(client: ServiceClient, index: int, iteration: int) -> Generator:
        command = make_command(index, iteration)
        targets = [primary] + ([secondary] if secondary is not None else [])
        error = ""
        ok = False
        for target in targets:
            try:
                yield from client.call(target, command, policy=policy)
                ok = True
                break
            except FAILOVER_ERRORS as exc:
                error = type(exc).__name__
            except CallError as exc:  # cmdFailed: service answered, no failover
                error = type(exc).__name__
                break
        return ok, error

    def one_client(index: int) -> Generator:
        client = ServiceClient(env.ctx, host, principal=f"chaos-{index}")
        iteration = 0
        while sim.now < stop_at:
            key = (index, iteration)
            t0 = sim.now
            in_flight[key] = t0
            ok, error = yield from one_call(client, index, iteration)
            del in_flight[key]
            now = sim.now
            result.records.append(
                CallRecord(index, t0, now - t0, ok, error)
            )
            result.availability.record(now, ok)
            iteration += 1
            delay = (
                think_rng.expovariate(1.0 / think_time) if think_time > 0 else 0.0
            )
            yield sim.timeout(delay)

    for i in range(n_clients):
        sim.process(one_client(i), name=f"chaos-client-{i}")
    sim.run(until=stop_at + grace)
    result.ended_at = sim.now
    result.hung = len(in_flight)
    return result
