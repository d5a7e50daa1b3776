"""Declarative autoscaling rules and the pure decision engine (E28).

A :class:`ScalingRule` binds one telemetry *signal* (cluster p95,
replication-lag drop rate, queue depth, breaker-open count, ...) to one
scalable *resource* (store groups, ASD replicas, connection-pool size)
with a hysteresis band, sustain requirement, per-direction cooldowns,
min/max bounds, and a per-window action-rate cap.

The :class:`DecisionEngine` is deliberately a **pure function of the
sample stream**: it touches no clock, no RNG, and no I/O — ``evaluate``
sees only the :class:`ControlSample` it is handed (whose ``time`` comes
from the DES kernel in production and from a
:class:`~repro.control.harness.SimulatedClock` in tests).  Feeding the
same samples to a fresh engine therefore reproduces the same decisions,
which is what makes the control plane replay-testable and lets the
chaos suite prove exactly-once actuation across a crash: the engine's
whole state round-trips through :meth:`export_state` /
:meth:`import_state` wire lines inside the daemon's PR 6 checkpoint.

Semantics, chosen so the Hypothesis properties read off the code:

* **hysteresis** — scale up only while ``signal > high``, down only
  while ``signal < low`` (``low < high``); inside the band nothing
  fires and the sustain anchors reset, so a signal oscillating within
  the band can never flap the resource.
* **sustain** — the signal must hold beyond the threshold continuously
  for ``sustain`` seconds before a decision fires (0 = immediately).
* **cooldown** — after *any* action the rule is quiet: an up-decision
  needs ``now - last_action >= up_cooldown``, a down-decision
  ``>= down_cooldown``.  Consecutive decisions from one rule are thus
  always at least the firing direction's cooldown apart.
* **bounds / rate** — targets clamp to ``[min_level, max_level]``
  (a clamp to the current level blocks the action), and at most
  ``max_actions_per_window`` actions fire per trailing ``rate_window``.
* **one action per resource per tick** — when several rules drive one
  resource, the first (declaration order) wins the tick.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.lang.wire import join_wire, split_wire


@dataclass(frozen=True)
class ControlSample:
    """One telemetry observation the engine decides on: a timestamp, the
    signal values, and the current capacity of every scalable resource."""

    time: float
    signals: Mapping[str, float]
    capacity: Mapping[str, int]

    def as_dict(self) -> dict:
        return {
            "time": self.time,
            "signals": dict(self.signals),
            "capacity": dict(self.capacity),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ControlSample":
        return cls(
            time=float(data["time"]),
            signals={k: float(v) for k, v in dict(data["signals"]).items()},
            capacity={k: int(v) for k, v in dict(data["capacity"]).items()},
        )


@dataclass(frozen=True)
class ScalingRule:
    """One declarative signal→resource policy."""

    name: str
    signal: str
    resource: str
    high: float                    # scale up while signal > high
    low: float                     # scale down while signal < low
    min_level: int = 1
    max_level: int = 4
    step: int = 1
    up_cooldown: float = 5.0
    down_cooldown: float = 15.0
    sustain: float = 0.0
    #: at most this many actions per trailing ``rate_window`` (0 = no cap)
    max_actions_per_window: int = 0
    rate_window: float = 60.0

    def __post_init__(self):
        if self.low >= self.high:
            raise ValueError("hysteresis band needs low < high")
        if self.min_level > self.max_level:
            raise ValueError("min_level must not exceed max_level")
        if self.step < 1:
            raise ValueError("step must be >= 1")
        if self.up_cooldown < 0 or self.down_cooldown < 0 or self.sustain < 0:
            raise ValueError("cooldowns and sustain must be >= 0")

    def cooldown_for(self, direction: int) -> float:
        return self.up_cooldown if direction > 0 else self.down_cooldown


@dataclass(frozen=True)
class Decision:
    """One scaling action the engine emitted.

    ``decision_id`` is deterministic (``<rule>#<seq>``): the daemon
    journals executed ids into its checkpoint, so a reincarnation can
    tell a replayed decision from a fresh one."""

    decision_id: str
    rule: str
    resource: str
    direction: int                 # +1 scale up, -1 scale down
    from_level: int
    to_level: int
    at: float
    signal: str
    value: float
    reason: str

    def as_dict(self) -> dict:
        return {
            "id": self.decision_id, "rule": self.rule,
            "resource": self.resource, "direction": self.direction,
            "from_level": self.from_level, "to_level": self.to_level,
            "at": self.at, "signal": self.signal, "value": self.value,
            "reason": self.reason,
        }


@dataclass
class _RuleState:
    """Mutable per-rule evaluation state (wire round-trips for checkpoints)."""

    seq: int = 0
    last_action_at: Optional[float] = None
    last_direction: int = 0
    over_since: Optional[float] = None
    under_since: Optional[float] = None
    #: action timestamps inside the trailing rate window, oldest first
    action_times: Deque[float] = field(default_factory=deque)

    @staticmethod
    def _opt(value: Optional[float]) -> str:
        return "" if value is None else repr(value)

    def to_wire(self) -> str:
        return join_wire((
            self.seq, self._opt(self.last_action_at), self.last_direction,
            self._opt(self.over_since), self._opt(self.under_since),
            ",".join(repr(t) for t in self.action_times),
        ))

    @classmethod
    def from_wire(cls, text: str) -> "_RuleState":
        seq, last_at, last_dir, over, under, times = split_wire(text)
        return cls(
            seq=int(seq),
            last_action_at=float(last_at) if last_at else None,
            last_direction=int(last_dir),
            over_since=float(over) if over else None,
            under_since=float(under) if under else None,
            action_times=deque(float(t) for t in times.split(",") if t),
        )


class DecisionEngine:
    """Evaluates a rule set against a stream of :class:`ControlSample`\\ s."""

    def __init__(self, rules: Sequence[ScalingRule]):
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError("duplicate rule names")
        self.rules: Tuple[ScalingRule, ...] = tuple(rules)
        self.states: Dict[str, _RuleState] = {
            rule.name: _RuleState() for rule in self.rules
        }
        self.blocked_cooldown = 0
        self.blocked_bounds = 0
        self.blocked_rate = 0
        self.blocked_claimed = 0

    # ------------------------------------------------------------------
    def evaluate(self, sample: ControlSample) -> List[Decision]:
        """One tick: every rule sees the sample; returns fired decisions."""
        now = sample.time
        decisions: List[Decision] = []
        claimed: set = set()       # resources already acted on this tick
        for rule in self.rules:
            state = self.states[rule.name]
            value = sample.signals.get(rule.signal)
            level = sample.capacity.get(rule.resource)
            if value is None or level is None:
                # Missing signal or resource: no opinion this tick, and the
                # sustain anchors reset (we cannot claim a continuous hold).
                state.over_since = state.under_since = None
                continue
            if value > rule.high:
                state.under_since = None
                if state.over_since is None:
                    state.over_since = now
            elif value < rule.low:
                state.over_since = None
                if state.under_since is None:
                    state.under_since = now
            else:
                state.over_since = state.under_since = None
                continue
            if state.over_since is not None:
                direction, anchor = 1, state.over_since
            else:
                direction, anchor = -1, state.under_since
            if now - anchor < rule.sustain:
                continue
            if rule.resource in claimed:
                self.blocked_claimed += 1
                continue
            if (
                state.last_action_at is not None
                and now - state.last_action_at < rule.cooldown_for(direction)
            ):
                self.blocked_cooldown += 1
                continue
            target = level + direction * rule.step
            target = max(rule.min_level, min(rule.max_level, target))
            if target == level:
                self.blocked_bounds += 1
                continue
            while state.action_times and state.action_times[0] <= now - rule.rate_window:
                state.action_times.popleft()
            if (
                rule.max_actions_per_window
                and len(state.action_times) >= rule.max_actions_per_window
            ):
                self.blocked_rate += 1
                continue
            state.seq += 1
            state.last_action_at = now
            state.last_direction = direction
            state.action_times.append(now)
            # A fresh sustain period must accumulate before the next action.
            state.over_since = state.under_since = None
            claimed.add(rule.resource)
            decisions.append(Decision(
                decision_id=f"{rule.name}#{state.seq}",
                rule=rule.name, resource=rule.resource, direction=direction,
                from_level=level, to_level=target, at=now,
                signal=rule.signal, value=value,
                reason=(
                    f"{rule.signal}={value:g} "
                    + (f"> {rule.high:g}" if direction > 0 else f"< {rule.low:g}")
                ),
            ))
        return decisions

    # ------------------------------------------------------------------
    # Operator surface
    # ------------------------------------------------------------------
    def status_rows(self, now: Optional[float] = None) -> List[dict]:
        """One row per rule: thresholds, bounds, and cooldown state."""
        rows = []
        for rule in self.rules:
            state = self.states[rule.name]
            cooling = 0.0
            if now is not None and state.last_action_at is not None:
                remaining = rule.cooldown_for(state.last_direction or 1) - (
                    now - state.last_action_at
                )
                cooling = max(0.0, remaining)
            rows.append({
                "rule": rule.name, "signal": rule.signal,
                "resource": rule.resource, "low": rule.low, "high": rule.high,
                "min": rule.min_level, "max": rule.max_level,
                "actions": state.seq, "last_direction": state.last_direction,
                "last_action_at": state.last_action_at,
                "cooldown_remaining": round(cooling, 3),
            })
        return rows

    # ------------------------------------------------------------------
    # Checkpoint wire form (rides the daemon's PR 6 checkpoint)
    # ------------------------------------------------------------------
    def export_state(self) -> Tuple[str, ...]:
        return tuple(
            join_wire((rule.name, self.states[rule.name].to_wire()))
            for rule in self.rules
        )

    def import_state(self, lines: Sequence[str]) -> int:
        restored = 0
        for line in lines:
            try:
                name, state_wire = split_wire(line)
                state = _RuleState.from_wire(state_wire)
            except (ValueError, IndexError):
                continue
            if name in self.states:
                self.states[name] = state
                restored += 1
        return restored


def default_rules(*, interval: float = 1.0) -> Tuple[ScalingRule, ...]:
    """The stock policy ``env.enable_autoscaling()`` installs.

    Cooldowns scale with the control interval: scale-up waits out the
    telemetry pipeline (push interval + rollup) so one overload burst
    yields one action, and scale-down is an order slower than scale-up —
    capacity is cheap to hold and expensive to miss."""
    return (
        ScalingRule(
            "store-pressure", signal="p95_s", resource="store_groups",
            high=0.25, low=0.05, min_level=1,
            max_level=4, up_cooldown=4.0 * interval,
            down_cooldown=24.0 * interval, sustain=2.0 * interval,
            max_actions_per_window=3, rate_window=30.0 * interval,
        ),
        # Up-only (a drop rate is never negative, so ``low=-1`` can't
        # trigger): zero drops is the *healthy* state, not a reason to
        # drain — store-pressure owns scale-down for store_groups.
        ScalingRule(
            "replication-lag", signal="replication_drop_rate",
            resource="store_groups", high=2.0, low=-1.0, min_level=1,
            max_level=4, up_cooldown=6.0 * interval,
            down_cooldown=24.0 * interval, sustain=2.0 * interval,
            max_actions_per_window=2, rate_window=30.0 * interval,
        ),
        ScalingRule(
            "queue-pressure", signal="queue_depth", resource="asd_replicas",
            high=8.0, low=0.5, min_level=1, max_level=3,
            up_cooldown=6.0 * interval, down_cooldown=30.0 * interval,
            sustain=2.0 * interval, max_actions_per_window=2,
            rate_window=40.0 * interval,
        ),
    )
