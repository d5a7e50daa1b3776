"""The chaos controller: executes a :class:`~repro.faults.plan.FaultPlan`.

The controller turns a declarative plan into simulation processes — one per
fault — that apply the fault at its start offset, hold it for its duration,
and revert it.  Everything is deterministic: the only randomness (which
messages a flaky link drops) comes from the network's seeded loss stream.

Every injection and heal is emitted on the trace recorder (kinds
``fault-*``), so experiments can line availability timelines up against
the schedule.
"""

from __future__ import annotations

from typing import Generator, List, Tuple

from repro.net import Network

from repro.faults.plan import FaultPlan, FaultSpec, flaky_loss_at


class ChaosController:
    """Drives one fault plan against one network.

    Usage::

        controller = ChaosController(net, plan)
        controller.start()          # offsets are relative to this moment
        sim.run(until=...)          # faults fire as the clock passes them
    """

    def __init__(self, net: Network, plan: FaultPlan, daemons=None):
        self.net = net
        self.sim = net.sim
        self.plan = plan
        #: name -> daemon for ``kill`` faults (e.g. ``env.daemons``,
        #: consulted live so reincarnations are found)
        self.daemons = daemons
        self.started_at: float = 0.0
        #: (sim_time, description) log of applied/healed faults
        self.history: List[Tuple[float, str]] = []
        self._active = 0

    @property
    def active_faults(self) -> int:
        return self._active

    def start(self) -> "ChaosController":
        """Schedule every fault in the plan, offsets relative to *now*."""
        self.started_at = self.sim.now
        for spec in self.plan.ordered():
            self.sim.process(self._run_spec(spec), name=f"chaos.{spec.kind}@{spec.at}")
        return self

    # ------------------------------------------------------------------
    def _note(self, event: str, spec: FaultSpec, **detail) -> None:
        self.history.append((self.sim.now, f"{event}:{spec.kind}"))
        self.net.trace.emit(self.sim.now, "chaos", f"fault-{event}",
                            fault=spec.kind, **detail)

    def _run_spec(self, spec: FaultSpec) -> Generator:
        yield self.sim.timeout(spec.at)
        handler = getattr(self, f"_run_{spec.kind}")
        self._active += 1
        try:
            yield from handler(spec)
        finally:
            self._active -= 1

    # -- kind handlers -----------------------------------------------------
    def _run_crash(self, spec: FaultSpec) -> Generator:
        host, relaunch = spec.params
        self.net.crash_host(host)
        self._note("inject", spec, host=host)
        if spec.duration is None:
            return
        yield self.sim.timeout(spec.duration)
        self.net.restart_host(host)
        if relaunch is not None:
            relaunch()
        self._note("heal", spec, host=host)

    def _run_kill(self, spec: FaultSpec) -> Generator:
        (name,) = spec.params
        daemon = (self.daemons or {}).get(name)
        if daemon is None:
            self._note("skip", spec, daemon=name)
            return
        daemon.kill()
        self._note("inject", spec, daemon=name)
        return
        yield  # pragma: no cover — keeps this handler a generator

    def _run_partition(self, spec: FaultSpec) -> Generator:
        (groups,) = spec.params
        self.net.set_partition(groups)
        self._note("inject", spec, groups=len(groups))
        if spec.duration is None:
            return
        yield self.sim.timeout(spec.duration)
        self.net.clear_partition()
        self._note("heal", spec)

    def _run_loss(self, spec: FaultSpec) -> Generator:
        (rate,) = spec.params
        previous = self.net.loss_rate
        self.net.loss_rate = rate
        self._note("inject", spec, rate=rate)
        yield self.sim.timeout(spec.duration or 0.0)
        self.net.loss_rate = previous
        self._note("heal", spec)

    def _run_degrade(self, spec: FaultSpec) -> Generator:
        host_name, latency_mult, bandwidth_mult = spec.params
        host = self.net.host(host_name)
        host.degrade(latency_mult=latency_mult, bandwidth_mult=bandwidth_mult)
        self._note("inject", spec, host=host_name,
                   latency_mult=latency_mult, bandwidth_mult=bandwidth_mult)
        yield self.sim.timeout(spec.duration or 0.0)
        host.restore_performance()
        self._note("heal", spec, host=host_name)

    def _run_flaky(self, spec: FaultSpec) -> Generator:
        a, b, peak_loss, steps, profile = spec.params
        duration = spec.duration or 0.0
        step_time = duration / steps
        self._note("inject", spec, a=a, b=b, peak_loss=peak_loss)
        for index in range(steps):
            self.net.set_link_fault(a, b, flaky_loss_at(peak_loss, steps, profile, index))
            yield self.sim.timeout(step_time)
        self.net.clear_link_fault(a, b)
        self._note("heal", spec, a=a, b=b)
