"""The deterministic control-plane test rig itself: clock semantics,
same-stream reproducibility, recorded-stream replay, JSONL round-trips,
and the engine-state wire form the daemon checkpoints."""

import pytest

from repro.control import (
    ControlHarness,
    ControlSample,
    DecisionEngine,
    ScalingRule,
    SimulatedClock,
    default_rules,
    dump_samples,
    load_samples,
    replay_decisions,
)

RULE = ScalingRule(
    "pressure", signal="load", resource="workers", high=10.0, low=2.0,
    min_level=1, max_level=6, up_cooldown=2.0, down_cooldown=4.0,
    sustain=1.5,
)

#: a stream that exercises up, sustained-hold, cooldown, and down phases
STREAM = [15.0, 15.0, 15.0, 12.0, 20.0, 5.0, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0]


def drive(harness, values=STREAM, dt=1.0):
    for value in values:
        harness.step({"load": value}, dt=dt)
    return harness


def test_clock_advances_and_rejects_reverse():
    clock = SimulatedClock(5.0)
    assert clock.advance(2.5) == 7.5
    assert clock.now == 7.5
    with pytest.raises(ValueError):
        clock.advance(-0.1)


def test_same_stream_same_decisions():
    """The whole point of the rig: two fresh harnesses fed the same
    stream produce identical decision lists, ids included."""
    a = drive(ControlHarness([RULE], capacity={"workers": 2}))
    b = drive(ControlHarness([RULE], capacity={"workers": 2}))
    assert a.decisions == b.decisions
    assert a.decisions  # the stream actually fires something
    assert a.capacity == b.capacity


def test_closed_loop_applies_decisions_to_capacity():
    harness = drive(ControlHarness([RULE], capacity={"workers": 2}))
    ups = [d for d in harness.decisions if d.direction > 0]
    downs = [d for d in harness.decisions if d.direction < 0]
    assert ups and downs
    expected = 2 + sum(d.direction * RULE.step for d in harness.decisions)
    assert harness.capacity["workers"] == expected


def test_replay_recorded_stream_reproduces_decisions():
    """replay_decisions() over a live harness's journal equals the live
    decision list — the assertion the E28 benchmark makes against the
    real daemon's journal."""
    live = drive(ControlHarness([RULE], capacity={"workers": 2}))
    replayed = replay_decisions([RULE], live.samples)
    assert replayed == live.decisions


def test_jsonl_round_trip(tmp_path):
    live = drive(ControlHarness([RULE], capacity={"workers": 2}))
    path = str(tmp_path / "samples.jsonl")
    assert dump_samples(live.samples, path) == len(STREAM)
    loaded = load_samples(path)
    assert loaded == live.samples
    assert replay_decisions([RULE], loaded) == live.decisions


def test_engine_state_round_trip_mid_stream():
    """Export engine state halfway, import into a fresh engine, finish
    the stream: decisions equal the uninterrupted run (the checkpoint /
    restart path, minus the daemon)."""
    whole = drive(ControlHarness([RULE], capacity={"workers": 2}))

    first = ControlHarness([RULE], capacity={"workers": 2})
    drive(first, STREAM[:6])
    lines = first.engine.export_state()

    second = ControlHarness(
        [RULE], capacity=dict(first.capacity),
        clock=SimulatedClock(first.clock.now),
    )
    assert second.engine.import_state(lines) == 1
    drive(second, STREAM[6:])
    assert first.decisions + second.decisions == whole.decisions


def test_import_state_skips_garbage_lines():
    engine = DecisionEngine([RULE])
    assert engine.import_state(["", "not|a|state", "pressure"]) == 0


def test_default_rules_construct_and_are_distinct():
    rules = default_rules(interval=0.5)
    names = [r.name for r in rules]
    assert len(set(names)) == len(names)
    resources = {r.resource for r in rules}
    assert resources == {"store_groups", "asd_replicas"}
    # Scale-down is always the slower direction (capacity is cheap to
    # hold, expensive to miss).
    for rule in rules:
        assert rule.down_cooldown >= rule.up_cooldown


def test_duplicate_rule_names_rejected():
    with pytest.raises(ValueError):
        DecisionEngine([RULE, RULE])
