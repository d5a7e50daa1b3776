"""Tests for gesture recognition and sound triangulation (§9 features)."""

import numpy as np
import pytest

from repro.core import CallError
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.services.devices import Epson7350ProjectorDaemon
from repro.services.gesture import (
    GestureRecognitionDaemon,
    make_gesture,
    normalize,
    resample,
    stroke_distance,
    _as_stroke,
)
from repro.services.triangulation import (
    SoundTriangulationDaemon,
    simulate_sound_event,
    solve_tdoa,
)


# ---------------------------------------------------------------------------
# Gesture matcher (pure)
# ---------------------------------------------------------------------------

def test_resample_fixed_length():
    stroke = _as_stroke(make_gesture("line"))
    assert resample(stroke).shape == (32, 2)


def test_normalize_scale_and_translation_invariant():
    circle = _as_stroke(make_gesture("circle"))
    shifted = circle * 5.0 + np.array([100.0, -40.0])
    assert stroke_distance(circle, shifted) < 0.01


def test_distinct_shapes_are_far_apart():
    shapes = ["circle", "line", "zigzag", "vee"]
    for i, a in enumerate(shapes):
        for b in shapes[i + 1:]:
            d = stroke_distance(_as_stroke(make_gesture(a)), _as_stroke(make_gesture(b)))
            assert d > 0.3, (a, b, d)


def test_noisy_same_shape_is_close():
    rng = np.random.default_rng(5)
    clean = _as_stroke(make_gesture("circle"))
    noisy = _as_stroke(make_gesture("circle", rng=rng, noise=0.05))
    assert stroke_distance(clean, noisy) < 0.2


def test_reversed_stroke_matches():
    circle = _as_stroke(make_gesture("circle"))
    assert stroke_distance(circle, circle[::-1]) < 0.05


def test_bad_stroke_rejected():
    from repro.core.daemon import ServiceError

    with pytest.raises(ServiceError):
        _as_stroke((1.0, 2.0, 3.0))  # odd length
    with pytest.raises(ServiceError):
        _as_stroke((1.0, 2.0, 3.0, 4.0))  # too short


# ---------------------------------------------------------------------------
# Gesture daemon
# ---------------------------------------------------------------------------

def gesture_env():
    env = ACEEnvironment(seed=210)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    host = env.add_workstation("cam-host", room="hawk", bogomips=3200.0, monitors=False)
    daemon = env.add_daemon(GestureRecognitionDaemon(env.ctx, "gestures", host, room="hawk"))
    projector = env.add_device(Epson7350ProjectorDaemon, "proj", host, room="hawk")
    env.boot()
    return env, daemon, projector


def call(env, daemon, command):
    def go():
        client = env.client(env.net.host("infra"), principal="driver")
        return (yield from client.call(daemon.address, command))

    return env.run(go())


def test_gesture_fires_mapped_command():
    env, daemon, projector = gesture_env()
    call(env, daemon, ACECmdLine("enrollGesture", gesture="circle",
                                 stroke=make_gesture("circle")))
    call(env, daemon, ACECmdLine("enrollGesture", gesture="zigzag",
                                 stroke=make_gesture("zigzag")))
    call(env, daemon, ACECmdLine("mapGesture", gesture="circle",
                                 host=projector.address.host, port=projector.address.port,
                                 command="power state=on;"))
    rng = env.rng.np("wave")
    reply = call(env, daemon, ACECmdLine(
        "observeStroke", stroke=make_gesture("circle", rng=rng, noise=0.04)))
    env.run_for(1.0)
    assert reply["matched"] == 1 and reply["gesture"] == "circle"
    assert projector.powered is True
    assert [g for _, g in daemon.recognized] == ["circle"]


def test_unknown_stroke_not_matched():
    env, daemon, projector = gesture_env()
    call(env, daemon, ACECmdLine("enrollGesture", gesture="circle",
                                 stroke=make_gesture("circle")))
    reply = call(env, daemon, ACECmdLine("observeStroke",
                                         stroke=make_gesture("zigzag")))
    assert reply["matched"] == 0
    assert daemon.recognized == []


def test_map_requires_enrollment():
    env, daemon, projector = gesture_env()

    def go():
        client = env.client(env.net.host("infra"), principal="driver")
        with pytest.raises(CallError, match="enroll"):
            yield from client.call(
                daemon.address,
                ACECmdLine("mapGesture", gesture="ghost", host="h", port=1,
                           command="ping;"))

    env.run(go())


# ---------------------------------------------------------------------------
# TDOA solver (pure)
# ---------------------------------------------------------------------------

MICS = [(0.0, 0.0), (10.0, 0.0), (0.0, 8.0), (10.0, 8.0)]


def test_solve_tdoa_exact():
    source = (3.0, 5.0)
    times = simulate_sound_event(source, MICS)
    position, rms = solve_tdoa(np.array(MICS), np.array(times))
    assert np.allclose(position, source, atol=0.01)
    assert rms < 0.01


def test_solve_tdoa_with_timing_jitter():
    rng = np.random.default_rng(11)
    source = (7.0, 2.0)
    times = simulate_sound_event(source, MICS, jitter_s=50e-6, rng=rng)
    position, rms = solve_tdoa(np.array(MICS), np.array(times))
    # 50 µs timing error ≈ 1.7 cm of path error; expect decimetre accuracy.
    assert np.hypot(*(np.array(position) - source)) < 0.5


def test_solve_tdoa_needs_three_mics():
    with pytest.raises(ValueError):
        solve_tdoa(np.array(MICS[:2]), np.array([0.0, 0.01]))


# ---------------------------------------------------------------------------
# Triangulation daemon (uses RoomDB positions)
# ---------------------------------------------------------------------------

def triangulation_env():
    env = ACEEnvironment(seed=211)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    env.add_room("hawk", dims=(10.0, 8.0, 3.0))
    host = env.add_workstation("av", room="hawk", bogomips=3200.0, monitors=False)
    daemon = env.add_daemon(SoundTriangulationDaemon(env.ctx, "triang", host, room="hawk"))
    env.boot()

    # Place four microphones in the RoomDB at the room corners.
    def place():
        client = env.client(env.net.host("infra"), principal="installer")
        for i, (x, y) in enumerate(MICS):
            yield from client.call(
                env.ctx.roomdb_address,
                ACECmdLine("registerService", service=f"mic{i}", room="hawk",
                           host="av", port=9000 + i, position=(x, y, 1.5)))

    env.run(place())
    return env, daemon


def test_daemon_locates_sound_event():
    env, daemon = triangulation_env()
    source = (2.5, 6.0)
    times = simulate_sound_event(source, MICS, event_time=100.0)

    def report():
        client = env.client(env.net.host("infra"), principal="mic-driver")
        conn = yield from client.connect(daemon.address)
        for i, t in enumerate(times):
            yield from conn.call(ACECmdLine("reportArrival", event="clap1",
                                            mic=f"mic{i}", time=float(t)))
        reply = yield from conn.call(ACECmdLine("locate", event="clap1"))
        conn.close()
        return reply

    reply = env.run(report())
    assert abs(reply["x"] - source[0]) < 0.05
    assert abs(reply["y"] - source[1]) < 0.05
    assert "clap1" in daemon.located


def test_daemon_requires_positioned_mics():
    env, daemon = triangulation_env()

    def go():
        client = env.client(env.net.host("infra"), principal="mic-driver")
        with pytest.raises(CallError, match="no known position"):
            yield from client.call(
                daemon.address,
                ACECmdLine("reportArrival", event="e", mic="ghostmic", time=1.0))

    env.run(go())


def test_locate_with_insufficient_reports():
    env, daemon = triangulation_env()

    def go():
        client = env.client(env.net.host("infra"), principal="mic-driver")
        yield from client.call(
            daemon.address,
            ACECmdLine("reportArrival", event="e2", mic="mic0", time=1.0))
        with pytest.raises(CallError, match="only 1 reports"):
            yield from client.call(daemon.address, ACECmdLine("locate", event="e2"))

    env.run(go())


def test_sound_located_notification():
    """Other services can watch soundLocated — e.g. an adaptive camera."""
    env, daemon = triangulation_env()
    from tests.core.conftest import EchoDaemon

    listener_host = env.add_workstation("listener", room="hawk", monitors=False)
    listener = EchoDaemon(env.ctx, "listener", listener_host, room="hawk")
    env.add_daemon(listener)
    env.run_for(1.0)

    def go():
        client = env.client(env.net.host("infra"), principal="setup")
        yield from client.call(
            daemon.address,
            ACECmdLine("addNotification", cmd="soundLocated", listener="listener",
                       host=listener_host.name, port=listener.port,
                       callback="onEchoSeen"))
        times = simulate_sound_event((5.0, 4.0), MICS, event_time=50.0)
        conn = yield from client.connect(daemon.address)
        for i, t in enumerate(times):
            yield from conn.call(ACECmdLine("reportArrival", event="clap2",
                                            mic=f"mic{i}", time=float(t)))
        conn.close()

    env.run(go())
    env.run_for(2.0)
    assert len(listener.seen_notifications) == 1
    assert "clap2" in listener.seen_notifications[0]["args"]
