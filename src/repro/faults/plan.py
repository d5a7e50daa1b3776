"""Declarative fault schedules for chaos experiments.

A :class:`FaultPlan` is an ordered list of :class:`FaultSpec` entries, each
saying *what* breaks, *when* (seconds after the controller starts), and for
*how long*.  Plans are pure data — building one touches nothing; the
:class:`~repro.faults.controller.ChaosController` schedules the actual
injections on the simulation kernel.

Five composable fault kinds cover the paper's clean failures plus the two
gray-failure modes the reliability machinery cannot see:

* ``crash`` — host crash, optional restart (+ relaunch hook for daemons);
* ``partition`` — split the network into groups, heal after a while;
* ``loss`` — a burst of elevated i.i.d. datagram loss;
* ``degrade`` — a host's networking slows by latency/bandwidth multipliers
  while its leases keep renewing (gray failure);
* ``flaky`` — time-varying message loss on one host pair, applied to
  streams too (gray failure: TCP stalls, nothing ever refuses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: kind, start offset, duration, and parameters."""

    kind: str
    at: float
    duration: Optional[float] = None
    params: Tuple = ()

    @property
    def until(self) -> float:
        """Offset at which this fault has fully healed."""
        return self.at + (self.duration or 0.0)


@dataclass
class FaultPlan:
    """A composable schedule of faults, built fluently::

        plan = (FaultPlan()
                .degrade_host("svc1", at=10, duration=15, latency_mult=2000)
                .flaky_link("users", "svc1", at=25, duration=10, peak_loss=0.9)
                .crash_host("svc2", at=35, restart_after=7))
    """

    specs: List[FaultSpec] = field(default_factory=list)

    def _add(self, spec: FaultSpec) -> "FaultPlan":
        if spec.at < 0:
            raise ValueError(f"fault start offset must be >= 0, got {spec.at}")
        if spec.duration is not None and spec.duration <= 0:
            raise ValueError(f"fault duration must be positive, got {spec.duration}")
        self.specs.append(spec)
        return self

    # -- clean failures (the modes §5.2–5.3 already recovers from) ---------
    def crash_host(
        self,
        host: str,
        at: float,
        restart_after: Optional[float] = None,
        relaunch: Optional[Callable[[], None]] = None,
    ) -> "FaultPlan":
        """Crash ``host``; optionally restart it ``restart_after`` seconds
        later, invoking ``relaunch()`` (e.g. to re-start its daemons)."""
        return self._add(FaultSpec("crash", at, restart_after, (host, relaunch)))

    def kill_daemon(self, name: str, at: float) -> "FaultPlan":
        """Abruptly kill one daemon (not its host): no deregistration, no
        lease release — the supervision plane's detection target.  The
        controller looks the name up at fire time, so killing the same name
        twice hits the *latest* incarnation."""
        return self._add(FaultSpec("kill", at, None, (name,)))

    def partition(
        self, groups: Sequence[Sequence[str]], at: float, heal_after: float
    ) -> "FaultPlan":
        """Split the network into ``groups``; heal after ``heal_after`` s."""
        frozen = tuple(tuple(g) for g in groups)
        return self._add(FaultSpec("partition", at, heal_after, (frozen,)))

    def loss_burst(self, rate: float, at: float, duration: float) -> "FaultPlan":
        """Raise the i.i.d. datagram loss rate to ``rate`` for ``duration`` s."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        return self._add(FaultSpec("loss", at, duration, (rate,)))

    # -- gray failures (the new modes) -------------------------------------
    def degrade_host(
        self,
        host: str,
        at: float,
        duration: float,
        latency_mult: float = 1.0,
        bandwidth_mult: float = 1.0,
    ) -> "FaultPlan":
        """Slow ``host``'s networking by the given multipliers — it stays
        up, keeps renewing leases, and only deadlines notice."""
        for label, mult in (("latency_mult", latency_mult), ("bandwidth_mult", bandwidth_mult)):
            if mult < 1.0:
                raise ValueError(f"{label} must be >= 1.0, got {mult}")
        return self._add(
            FaultSpec("degrade", at, duration, (host, latency_mult, bandwidth_mult))
        )

    def flaky_link(
        self,
        a: str,
        b: str,
        at: float,
        duration: float,
        peak_loss: float,
        steps: int = 8,
        profile: str = "triangle",
    ) -> "FaultPlan":
        """Time-varying loss on the ``a``–``b`` link (streams included).

        ``profile`` shapes loss over the window: ``"triangle"`` ramps up to
        ``peak_loss`` at the midpoint and back down (the classic slow-onset
        gray failure); ``"constant"`` holds ``peak_loss`` throughout.
        """
        if not 0.0 < peak_loss <= 1.0:
            raise ValueError(f"peak loss must be in (0, 1], got {peak_loss}")
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        if profile not in ("triangle", "constant"):
            raise ValueError(f"unknown loss profile {profile!r}")
        return self._add(
            FaultSpec("flaky", at, duration, (a, b, peak_loss, steps, profile))
        )

    # -- inspection --------------------------------------------------------
    @property
    def end_offset(self) -> float:
        """Offset by which every scheduled fault has healed."""
        return max((spec.until for spec in self.specs), default=0.0)

    def ordered(self) -> List[FaultSpec]:
        return sorted(self.specs, key=lambda s: (s.at, s.kind))

    def __len__(self) -> int:
        return len(self.specs)


def flaky_loss_at(
    peak_loss: float, steps: int, profile: str, step_index: int
) -> float:
    """Loss level for step ``step_index`` of a flaky-link window."""
    if profile == "constant" or steps == 1:
        return peak_loss
    # Triangle: ramp up to the peak at the window midpoint, then back down;
    # sampled at step centres so the first/last steps are small but nonzero.
    centre = 2.0 * (step_index + 0.5) / steps - 1.0  # in (-1, 1)
    return peak_loss * (1.0 - abs(centre))
