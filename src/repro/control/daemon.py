"""The closed-loop autoscaling controller daemon (E28 tentpole).

An ordinary :class:`~repro.core.daemon.ACEDaemon`: ASD-registered,
traceable, and supervisable by the PR 6 recovery plane.  Each control
tick it pulls a :class:`~repro.control.rules.ControlSample` from the
telemetry aggregator (via a :class:`~repro.control.signals.SignalReader`
style callable), overlays alert-derived signals from the ``obsAlert``
notifications it subscribes to, runs the pure
:class:`~repro.control.rules.DecisionEngine`, and executes fired
decisions through :class:`Actuator` bindings onto the environment's
scale knobs (add/drain store groups, spawn/retire ASD replicas, resize
connection pools).

**Exactly-once across crashes.**  Every evaluated sample and fired
decision is journaled; before an actuator runs, the decision id is
committed to the executed set and the whole engine state (cooldowns,
sustain anchors, sequence counters) is checkpointed synchronously into
the host supervisor.  A reincarnation restores that checkpoint *before*
it starts, so a decision in flight at the crash is neither forgotten
(the cooldown stamp survives) nor repeated (its id is already in the
executed set) — the same contract PR 6 gives stamped client commands,
extended to autonomous control actions.

The recorded sample journal is replayable through
:func:`~repro.control.harness.replay_decisions`; the E28 benchmark
asserts the replay reproduces the live decision sequence exactly.
"""

from __future__ import annotations

import inspect
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.daemon import ACEDaemon, Request
from repro.core.notifications import CALLBACK_ARGS
from repro.core.policy import CallPolicy
from repro.lang import ArgSpec, ArgType, CommandSemantics
from repro.lang.wire import join_wire, split_wire
from repro.obs.cluster.alerts import alert_from_payload, is_fast_burn
from repro.services.base import Checkpointable

from repro.control.rules import ControlSample, Decision, DecisionEngine, ScalingRule

#: executed-decision ids remembered across restarts (safely above any
#: plausible decision rate within one checkpoint lifetime)
EXECUTED_WINDOW = 512


@dataclass
class Actuator:
    """Binds one scalable resource to the env API that turns its knob.

    ``level()`` reports current capacity (feeds the sample's capacity
    map); ``scale(decision)`` applies a decision — it may return a
    generator (the daemon drives it on the control loop) or act
    synchronously and return anything else."""

    resource: str
    level: Callable[[], int]
    scale: Callable[[Decision], object]


class AutoscalerDaemon(Checkpointable, ACEDaemon):
    """Watches the telemetry plane, turns the environment's scale knobs."""

    service_type = "Autoscaler"

    def __init__(
        self, ctx, name, host, *,
        interval: float = 1.0,
        rules: Sequence[ScalingRule] = (),
        reader: Optional[Callable[[], ControlSample]] = None,
        actuators: Optional[Dict[str, Actuator]] = None,
        alert_window: Optional[float] = None,
        fast_burn_horizon: Optional[float] = None,
        resubscribe: Optional[float] = None,
        decision_log_size: int = 256,
        **kwargs,
    ):
        kwargs.setdefault("authorize_commands", False)  # infrastructure plane
        super().__init__(ctx, name, host, **kwargs)
        self.interval = interval
        self._rules = tuple(rules)
        self.engine = DecisionEngine(self._rules)
        self.reader = reader
        self.actuators: Dict[str, Actuator] = dict(actuators or {})
        #: how long a received alert keeps contributing to alert signals
        self.alert_window = alert_window if alert_window is not None else 10.0 * interval
        #: alerts whose long window fits under this count as fast burns
        self.fast_burn_horizon = (
            fast_burn_horizon if fast_burn_horizon is not None else 6.0 * interval
        )
        self.resubscribe = resubscribe if resubscribe is not None else 10.0 * interval
        #: decision id -> decision time; the at-most-once journal
        self._executed: "OrderedDict[str, float]" = OrderedDict()
        #: every sample the engine evaluated (the replayable stream)
        self.samples: List[ControlSample] = []
        self.decision_log: Deque[dict] = deque(maxlen=decision_log_size)
        #: (received_at, alert dict) for recently heard obsAlerts
        self.recent_alerts: Deque[Tuple[float, dict]] = deque(maxlen=64)

        metrics = ctx.obs.metrics
        self._m_ticks = metrics.counter("control.ticks")
        self._m_decisions = metrics.counter("control.decisions")
        self._m_up = metrics.counter("control.scale_up")
        self._m_down = metrics.counter("control.scale_down")
        self._m_failures = metrics.counter("control.action_failures")
        self._m_alerts = metrics.counter("control.alerts_seen")
        self._m_fast = metrics.counter("control.fast_burn_alerts")
        self._m_blocked = metrics.gauge("control.blocked")
        self._level_gauges: Dict[str, object] = {
            resource: metrics.gauge(f"control.level.{resource}")
            for resource in self.actuators
        }
        # The control plane's own telemetry series, separate from the
        # generic daemon.<name>.* scope the base class registers.
        ctx.obs.register_scope(
            "control", f"{host.name}:{self.port}", host.name,
            incarnation=self.incarnation, prefix="control.",
        )

    # ------------------------------------------------------------------
    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define(
            "ctlStatus",
            ArgSpec("topk", ArgType.INTEGER, required=False, default=8),
            description="active rules, recent decisions, cooldown state",
        )
        sem.define(
            "ctlAlert", *CALLBACK_ARGS,
            description="obsAlert notification callback from the aggregator",
        )

    def on_started(self) -> None:
        self._spawn(self._control_loop(), "control-loop")
        if self.ctx.telemetry_address is not None:
            self._spawn(self._subscribe_loop(), "subscribe")

    # ------------------------------------------------------------------
    # Alert subscription (the notification plane fans obsAlerts to us)
    # ------------------------------------------------------------------
    def _subscribe_loop(self) -> Generator:
        """Register (and periodically re-register — an aggregator restart
        loses its in-memory notification table) as an obsAlert watcher."""
        policy = CallPolicy(
            deadline=self.interval * 2, attempt_timeout=self.interval,
            max_attempts=2, breaker_threshold=0,
        )
        while self.running:
            yield from self.watch(
                self.ctx.telemetry_address, "obsAlert", "ctlAlert", policy=policy)
            yield self.ctx.sim.timeout(self.resubscribe)

    def cmd_ctlAlert(self, request: Request) -> dict:
        alert = alert_from_payload(request.command.str("args", ""))
        if alert is None:
            return {"seen": 0}
        now = self.ctx.sim.now
        self.recent_alerts.append((now, alert))
        self._m_alerts.inc()
        fast = is_fast_burn(alert, self.fast_burn_horizon)
        if fast:
            self._m_fast.inc()
        self.ctx.trace.emit(
            now, self.name, "control-alert", slo=alert["slo"],
            severity=alert["severity"], fast=int(fast),
        )
        return {"seen": 1}

    def _alert_signals(self, now: float) -> Dict[str, float]:
        live = [
            alert for at, alert in self.recent_alerts
            if now - at <= self.alert_window
        ]
        return {
            "alerts_active": float(len(live)),
            "fast_burn": float(sum(
                1 for alert in live
                if is_fast_burn(alert, self.fast_burn_horizon)
            )),
            "page_alerts": float(sum(
                1 for alert in live if alert.get("severity") == "page"
            )),
        }

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def _control_loop(self) -> Generator:
        sim = self.ctx.sim
        while self.running:
            yield sim.timeout(self.interval)
            if not self.running or self.reader is None:
                continue
            self._m_ticks.inc()
            raw = self.reader()
            signals = dict(raw.signals)
            signals.update(self._alert_signals(raw.time))
            sample = ControlSample(
                time=raw.time, signals=signals, capacity=raw.capacity
            )
            self.samples.append(sample)
            for resource, gauge in self._level_gauges.items():
                level = sample.capacity.get(resource)
                if level is not None:
                    gauge.set(level)
            decisions = self.engine.evaluate(sample)
            self._m_blocked.set(
                self.engine.blocked_cooldown + self.engine.blocked_bounds
                + self.engine.blocked_rate + self.engine.blocked_claimed
            )
            for decision in decisions:
                yield from self._execute_decision(decision)

    def _execute_decision(self, decision: Decision) -> Generator:
        if decision.decision_id in self._executed:
            # Restored journal says this one already ran (or was in
            # flight when we died): never actuate it twice.
            return
        self._executed[decision.decision_id] = decision.at
        while len(self._executed) > EXECUTED_WINDOW:
            self._executed.popitem(last=False)
        # Journal the intent *before* acting: store_checkpoint is an
        # in-process, non-yielding write into the host supervisor, so a
        # kill anywhere after this line restores an engine that already
        # counted the decision (cooldown held, id executed).
        self._checkpoint_to_supervisor()
        self._m_decisions.inc()
        (self._m_up if decision.direction > 0 else self._m_down).inc()
        self.ctx.trace.emit(
            self.ctx.sim.now, self.name, "scale-decision",
            id=decision.decision_id, rule=decision.rule,
            resource=decision.resource, direction=decision.direction,
            from_level=decision.from_level, to_level=decision.to_level,
            reason=decision.reason,
        )
        entry = dict(decision.as_dict(), status="executing")
        self.decision_log.append(entry)
        actuator = self.actuators.get(decision.resource)
        if actuator is None:
            entry["status"] = "no-actuator"
            return
        try:
            result = actuator.scale(decision)
            if inspect.isgenerator(result):
                yield from result
        except Exception as exc:  # noqa: BLE001 — one bad knob must not
            # take down the whole control plane; the failure is counted,
            # traced, and visible in the decision log.
            self._m_failures.inc()
            entry["status"] = f"failed: {exc}"
            self.ctx.trace.emit(
                self.ctx.sim.now, self.name, "scale-action-failed",
                id=decision.decision_id, error=str(exc),
            )
            return
        entry["status"] = "done"
        gauge = self._level_gauges.get(decision.resource)
        if gauge is not None:
            gauge.set(actuator.level())

    def _checkpoint_to_supervisor(self) -> None:
        supervisor = self.ctx.supervisors.get(self.host.name)
        if supervisor is not None:
            supervisor.store_checkpoint(self.name, self.compose_checkpoint())

    # ------------------------------------------------------------------
    # Checkpoint wire form (PR 6)
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> Tuple[str, ...]:
        lines = [
            join_wire(("E", line)) for line in self.engine.export_state()
        ]
        lines.extend(
            join_wire(("X", decision_id, repr(at)))
            for decision_id, at in self._executed.items()
        )
        return tuple(lines)

    def restore_state(self, lines: Tuple[str, ...]) -> None:
        engine_lines = []
        for line in lines:
            try:
                fields = split_wire(line)
            except ValueError:
                continue
            if not fields:
                continue
            if fields[0] == "E" and len(fields) == 2:
                engine_lines.append(fields[1])
            elif fields[0] == "X" and len(fields) == 3:
                try:
                    self._executed[fields[1]] = float(fields[2])
                except ValueError:
                    continue
        self.engine.import_state(engine_lines)

    # ------------------------------------------------------------------
    # Operator surface
    # ------------------------------------------------------------------
    def snapshot(self, topk: int = 8) -> dict:
        """The programmatic status view (status CLI ``--control``)."""
        now = self.ctx.sim.now
        return {
            "interval": self.interval,
            "ticks": len(self.samples),
            "executed": len(self._executed),
            "rules": self.engine.status_rows(now),
            "decisions": list(self.decision_log)[-topk:],
            "alerts": [
                dict(alert, received_at=round(at, 3))
                for at, alert in list(self.recent_alerts)[-topk:]
            ],
            "blocked": {
                "cooldown": self.engine.blocked_cooldown,
                "bounds": self.engine.blocked_bounds,
                "rate": self.engine.blocked_rate,
                "claimed": self.engine.blocked_claimed,
            },
        }

    def cmd_ctlStatus(self, request: Request) -> dict:
        k = request.command.int("topk", 8)
        now = self.ctx.sim.now
        rows = []
        for row in self.engine.status_rows(now):
            rows.append(join_wire((
                "R", row["rule"], row["signal"], row["resource"],
                repr(row["low"]), repr(row["high"]), str(row["min"]),
                str(row["max"]), str(row["actions"]),
                repr(row["cooldown_remaining"]),
            )))
        for entry in list(self.decision_log)[-k:]:
            rows.append(join_wire((
                "D", entry["id"], entry["rule"], entry["resource"],
                str(entry["direction"]), str(entry["from_level"]),
                str(entry["to_level"]), repr(entry["at"]), entry["status"],
            )))
        out = {
            "ticks": len(self.samples),
            "decisions": int(self._m_decisions.value),
            "alerts": len(self.recent_alerts),
        }
        if rows:
            out["rows"] = tuple(rows)
        return out
