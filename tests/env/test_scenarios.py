"""Integration tests: the five Chapter 7 scenarios end to end."""

import pytest

from repro.env.scenarios import (
    run_full_story,
    scenario_1_new_user,
    scenario_2_identification,
    scenario_3_workspace_display,
    scenario_4_multiple_workspaces,
    scenario_5_devices,
    standard_environment,
)


@pytest.fixture(scope="module")
def story():
    """One environment playing all five scenarios (expensive; share it)."""
    env = standard_environment(seed=42).boot()
    results = {}
    results["s1"] = env.run(scenario_1_new_user(env))
    results["s2"] = env.run(scenario_2_identification(env))
    results["s3"] = env.run(scenario_3_workspace_display(env))
    results["s4"] = env.run(scenario_4_multiple_workspaces(env))
    results["s5"] = env.run(scenario_5_devices(env))
    return env, results


def test_scenario1_creates_user_and_workspace(story):
    env, results = story
    s1 = results["s1"]
    assert s1["workspace"] == "john-default"
    assert s1["vnc_host"] in env.net.hosts
    assert "john" in env.daemon("aud").users
    assert s1["t_total"] < 10.0


def test_scenario1_vnc_server_registered(story):
    env, results = story
    assert "vnc.john-default" in env.daemon("asd").records


def test_scenario2_identifies_and_updates_location(story):
    env, results = story
    s2 = results["s2"]
    assert s2["matched"] is True
    assert s2["distance"] < 1.0
    assert s2["aud_location"] == "hawk"


def test_scenario3_workspace_appears_at_podium(story):
    env, results = story
    s3 = results["s3"]
    assert s3["displayed"] is True
    assert s3["display"] == "podium"
    assert s3["session"] == "john-default"
    assert s3["t_end_to_end"] < 10.0


def test_scenario4_selector_and_secondary_workspace(story):
    env, results = story
    s4 = results["s4"]
    assert sorted(s4["workspaces"]) == ["john-default", "john-work"]
    assert s4["opened_secondary"] is True


def test_scenario4_selector_event_emitted(story):
    env, results = story
    # With two workspaces the IDMon pops a selector instead of auto-opening.
    wss_daemon = env.daemon("idmon")
    assert any(r.kind == "notification-delivered" for r in env.trace.records)
    # the selectorShown command executed on the idmon
    assert "selectorShown" in wss_daemon.semantics


def test_scenario5_devices_configured(story):
    env, results = story
    s5 = results["s5"]
    assert "projector.hawk" in s5["room_services"]
    assert "camera.hawk" in s5["room_services"]
    assert s5["projector_state"]["source"] == "workspace"
    assert s5["projector_state"]["pip"] == "stream:camera.hawk"
    assert s5["camera_state"]["powered"] == 1
    assert s5["camera_state"]["zoom"] == 4.0
    assert 0 < s5["pan"] <= 90.0


def test_identify_failure_logged():
    env = standard_environment(seed=7).boot()
    env.run(scenario_1_new_user(env, username="jane", fullname="Jane Roe"))
    # An intruder whose fingerprint matches nobody.
    import numpy as np

    from repro.lang import ACECmdLine
    from repro.services.fiu import TEMPLATE_DIM

    fiu = env.daemon("fiu.podium")

    def intrude():
        driver = env.client(fiu.host, principal="fiu-driver")
        yield from driver.call(fiu.address, ACECmdLine("loadTemplates"))
        bogus = tuple(float(v) for v in np.full(TEMPLATE_DIM, 50.0))
        reply = yield from driver.call(fiu.address, ACECmdLine("scan", sample=bogus))
        yield env.sim.timeout(1.0)
        return reply

    reply = env.run(intrude())
    assert reply.int("matched") == 0
    logger = env.daemon("netlogger")
    assert any(e.event == "invalid_identification" for e in logger.entries)


def test_workspace_state_persists_across_access_points():
    """The core workspace promise: draw at the podium, detach, reattach in
    the office — same framebuffer ('pick up where he/she left off')."""
    from repro.apps.vnc import VNCViewer
    from repro.lang import ACECmdLine

    env = standard_environment(seed=11).boot()
    env.run(scenario_1_new_user(env))
    wss = env.daemon("wss")
    record = wss.workspaces[("john", "john-default")]

    def draw_and_move():
        podium = env.net.host("podium")
        office = env.net.host("tube")
        client1 = env.client(podium, principal="john")
        viewer1 = VNCViewer(env.ctx, podium, record.server_address,
                            record.session, record.password)
        yield from viewer1.attach(client1)
        yield from viewer1.send_input(op="draw", x=10, y=20, w=30, h=5, value=200)
        yield env.sim.timeout(0.5)
        yield from viewer1.pump()
        fb_at_podium = viewer1.framebuffer.copy()
        yield from viewer1.detach()

        client2 = env.client(office, principal="john")
        viewer2 = VNCViewer(env.ctx, office, record.server_address,
                            record.session, record.password)
        yield from viewer2.attach(client2)
        fb_at_office = viewer2.framebuffer.copy()
        yield from viewer2.detach()
        return fb_at_podium, fb_at_office

    fb1, fb2 = env.run(draw_and_move())
    assert (fb1 == fb2).all()
    assert (fb1[20:25, 10:40] == 200).all()


def test_run_full_story_smoke():
    results = run_full_story(seed=3)
    assert results["scenario3"]["displayed"]
    assert results["scenario5"]["camera_state"]["powered"] == 1
