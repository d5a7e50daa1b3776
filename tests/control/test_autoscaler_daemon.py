"""Live AutoscalerDaemon integration: signal → decision → actuation on
the DES kernel, control telemetry, the obsAlert subscription, the
operator wire surface, and the checkpoint round-trip."""

import pytest

from repro.core import CallPolicy
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.lang.command import is_ok
from repro.obs.cluster.alerts import alert_to_command
from repro.control import (
    Actuator,
    AutoscalerDaemon,
    ScalingRule,
    replay_decisions,
)

RULE = ScalingRule(
    "load", signal="load", resource="workers", high=10.0, low=2.0,
    min_level=1, max_level=5, up_cooldown=2.0, down_cooldown=4.0,
)


class FakePlant:
    """A dial the controller turns plus the signal it reacts to."""

    def __init__(self, level=1):
        self.level = level
        self.load = 0.0
        self.scaled = []          # every decision that actuated

    def actuator(self):
        def scale(decision):
            self.scaled.append(decision.decision_id)
            self.level = decision.to_level
        return Actuator("workers", level=lambda: self.level, scale=scale)

    def reader(self, ctx):
        from repro.control import ControlSample

        def read():
            return ControlSample(
                time=ctx.sim.now, signals={"load": self.load},
                capacity={"workers": self.level},
            )
        return read


def build(seed=3, **daemon_kwargs):
    env = ACEEnvironment(seed=seed, lease_duration=4.0)
    env.add_infrastructure()
    env.boot()
    env.enable_supervision(
        suspicion_window=2.5, check_interval=0.25, checkpoint_interval=1.0
    )
    env.enable_telemetry(interval=0.5)
    plant = FakePlant()
    daemon = AutoscalerDaemon(
        env.ctx, "autoscaler", env.daemons["asd"].host,
        interval=0.5, rules=[RULE], reader=plant.reader(env.ctx),
        actuators={"workers": plant.actuator()}, **daemon_kwargs,
    )
    env.add_daemon(daemon)
    return env, daemon, plant


def test_pressure_scales_up_then_quiet_scales_down():
    env, daemon, plant = build()
    plant.load = 50.0
    env.run_for(3.0)
    assert plant.level > 1
    assert plant.scaled
    ups = [e for e in daemon.decision_log if e["direction"] > 0]
    assert ups and all(e["status"] == "done" for e in ups)

    plant.load = 0.5
    env.run_for(10.0)
    downs = [e for e in daemon.decision_log if e["direction"] < 0]
    assert downs
    assert plant.level < RULE.max_level

    # Every executed decision is traced.
    assert len(env.trace.filter(kind="scale-decision")) == len(plant.scaled)


def test_journal_replays_to_identical_decisions():
    """The live daemon's sample journal fed to a fresh engine reproduces
    the exact decision sequence — no wall-clock dependence anywhere."""
    env, daemon, plant = build()
    plant.load = 50.0
    env.run_for(3.0)
    plant.load = 0.5
    env.run_for(8.0)
    assert daemon.decision_log
    replayed = replay_decisions([RULE], daemon.samples)
    assert [d.decision_id for d in replayed] == [
        e["id"] for e in daemon.decision_log
    ]
    assert [d.to_level for d in replayed] == [
        e["to_level"] for e in daemon.decision_log
    ]


def test_control_metrics_reach_aggregator():
    env, daemon, plant = build()
    plant.load = 50.0
    env.run_for(4.0)
    aggregator = env.daemons["telemetry"]
    services = {key[0] for key in aggregator.series}
    assert "control" in services
    assert aggregator.rollup_counter("decisions", "control") >= 1
    assert aggregator.rollup_counter("ticks", "control") >= 1


def test_obs_alert_notification_carries_severity_and_windows():
    env, daemon, plant = build()
    env.run_for(2.0)  # subscription settles
    alert = {
        "slo": "service-latency", "severity": "page",
        "burn_long": 3.5, "burn_short": 9.0, "kind": "latency",
        "objective": 0.95, "long_window": 2.0, "short_window": 0.5,
    }
    aggregator = env.daemons["telemetry"]
    reply = env.run(aggregator.self_execute(alert_to_command(alert)))
    assert is_ok(reply)
    env.run_for(1.0)  # callback delivery

    assert daemon.recent_alerts
    _, received = daemon.recent_alerts[-1]
    assert received["severity"] == "page"
    assert received["kind"] == "latency"
    assert received["long_window"] == 2.0
    assert received["short_window"] == 0.5
    # long_window=2.0 <= horizon (6 * 0.5s) -> fast burn
    assert env.obs.metrics.counter("control.fast_burn_alerts").value >= 1
    # Alert-derived signals are overlaid onto the next sample.
    assert daemon.samples[-1].signals["alerts_active"] >= 1.0
    assert daemon.samples[-1].signals["fast_burn"] >= 1.0


def test_legacy_alert_without_detail_is_not_fast():
    env, daemon, plant = build()
    env.run_for(2.0)
    legacy = ACECmdLine(
        "obsAlert", slo="rpc-availability", severity="page",
        burn_long=5.0, burn_short=20.0,
    )
    aggregator = env.daemons["telemetry"]
    env.run(aggregator.self_execute(legacy))
    env.run_for(1.0)
    assert daemon.recent_alerts
    _, received = daemon.recent_alerts[-1]
    assert "long_window" not in received
    assert env.obs.metrics.counter("control.fast_burn_alerts").value == 0
    assert daemon.samples[-1].signals["page_alerts"] >= 1.0


def test_ctl_status_wire_surface():
    env, daemon, plant = build()
    plant.load = 50.0
    env.run_for(3.0)
    client = env.client(env.daemons["asd"].host, principal="operator")
    reply = env.run(client.call(
        daemon.address, ACECmdLine("ctlStatus", topk=4), CallPolicy(), attach=False
    ))
    assert is_ok(reply)
    rows = reply.get("rows", ())
    rule_rows = [r for r in rows if r.startswith("R|")]
    decision_rows = [r for r in rows if r.startswith("D|")]
    assert len(rule_rows) == 1
    assert "load" in rule_rows[0] and "workers" in rule_rows[0]
    assert decision_rows
    assert reply.get("ticks") >= 1


def test_checkpoint_round_trip_preserves_engine_and_journal():
    env, daemon, plant = build()
    plant.load = 50.0
    env.run_for(3.0)
    assert daemon._executed
    lines = daemon.checkpoint_state()

    fresh = daemon.respawn(daemon.incarnation + 1)
    assert fresh.interval == daemon.interval
    assert fresh._rules == daemon._rules
    fresh.restore_state(lines)
    assert fresh._executed == daemon._executed
    assert fresh.engine.export_state() == daemon.engine.export_state()


def test_snapshot_shape():
    env, daemon, plant = build()
    plant.load = 50.0
    env.run_for(3.0)
    snap = daemon.snapshot(topk=4)
    assert snap["ticks"] >= 1
    assert len(snap["rules"]) == 1
    assert snap["rules"][0]["rule"] == "load"
    assert snap["decisions"]
    assert set(snap["blocked"]) == {"cooldown", "bounds", "rate", "claimed"}
