"""Tests for HRM/SRM/HAL/SAL (§4.1–4.4, Fig. 11) and placement."""

import pytest

from repro.core import CallError
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine


def build_env(sal_placement="srm"):
    env = ACEEnvironment(seed=13, lease_duration=10.0)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False,
                           sal_placement=sal_placement, srm_poll_interval=1.0)
    env.add_workstation("fast", room="lab", bogomips=1600.0)
    env.add_workstation("slow", room="lab", bogomips=400.0)
    env.boot()
    env.run_for(2.5)  # let the SRM poll everyone
    return env


@pytest.fixture
def env():
    return build_env()


def call(env, address, command):
    def go():
        client = env.client(env.net.host("infra"), principal="tester")
        return (yield from client.call(address, command))

    return env.run(go())


# -- HRM ------------------------------------------------------------------------

def test_hrm_reports_host_figures(env):
    hrm = env.daemon("hrm.fast")
    reply = call(env, hrm.address, ACECmdLine("getResources"))
    assert reply["host"] == "fast"
    assert reply["bogomips"] == 1600.0
    assert reply["run_queue"] == 0
    assert reply["mem_free_mb"] > 0


def test_hrm_sample_notifications(env):
    """§4.1 push mode: a listener hears periodic samples."""
    from tests.core.conftest import EchoDaemon

    listener_host = env.add_workstation("listener", room="lab", monitors=False)
    listener = EchoDaemon(env.ctx, "load-listener", listener_host, room="lab")
    env.add_daemon(listener)
    env.run_for(1.0)
    hrm = env.daemon("hrm.fast")
    call(env, hrm.address, ACECmdLine(
        "addNotification", cmd="sample", listener=listener.name,
        host=listener_host.name, port=listener.port, callback="onEchoSeen",
    ))
    env.run_for(hrm.sample_interval * 2.5)
    assert len(listener.seen_notifications) >= 2
    assert listener.seen_notifications[0]["trigger"] == "sample"


# -- SRM -------------------------------------------------------------------------

def test_srm_sees_all_hosts(env):
    srm = env.daemon("srm")
    assert set(srm.reports) >= {"infra", "fast", "slow"}


def test_srm_select_prefers_fast_idle_host(env):
    reply = call(env, env.daemon("srm").address, ACECmdLine("selectHost"))
    assert reply["host"] == "fast"


def test_srm_select_avoids_loaded_host(env):
    # Pile CPU work on the fast host.
    hal_fast = env.daemon("hal.fast")
    for _ in range(6):
        hal_fast.launch("cpu_spinner", "work=800 interval=0.01")
    env.run_for(8.0)  # SRM re-polls; run queue on 'fast' is long now
    reply = call(env, env.daemon("srm").address, ACECmdLine("selectHost"))
    assert reply["host"] in ("slow", "infra")


def test_srm_excludes_and_requirements(env):
    reply = call(env, env.daemon("srm").address,
                 ACECmdLine("selectHost", exclude="fast"))
    assert reply["host"] != "fast"
    with pytest.raises(CallError, match="no suitable host"):
        call(env, env.daemon("srm").address,
             ACECmdLine("selectHost", min_mem_mb=10_000_000.0))


def test_srm_drops_crashed_host(env):
    env.net.crash_host("fast")
    env.run_for(3.0)
    assert "fast" not in env.daemon("srm").reports


# -- HAL --------------------------------------------------------------------------

def test_hal_launch_kill_list(env):
    hal = env.daemon("hal.fast")
    reply = call(env, hal.address, ACECmdLine("launch", app="idle"))
    pid = reply["pid"]
    running = call(env, hal.address, ACECmdLine("isRunning", pid=pid))
    assert running["running"] == 1
    listing = call(env, hal.address, ACECmdLine("listRunning"))
    assert listing["count"] == 1
    call(env, hal.address, ACECmdLine("kill", pid=pid))
    env.run_for(0.5)
    assert call(env, hal.address, ACECmdLine("isRunning", pid=pid))["running"] == 0


def test_hal_unknown_app_rejected(env):
    hal = env.daemon("hal.fast")
    with pytest.raises(CallError, match="unknown application"):
        call(env, hal.address, ACECmdLine("launch", app="no-such-app"))


def test_hal_list_apps_includes_registry(env):
    reply = call(env, env.daemon("hal.fast").address, ACECmdLine("listApps"))
    assert "vncserver" in reply["apps"]
    assert "cpu_spinner" in reply["apps"]


# -- SAL ---------------------------------------------------------------------------

def test_sal_srm_placement_targets_fast_host(env):
    reply = call(env, env.daemon("sal").address, ACECmdLine("launchApp", app="idle"))
    assert reply["host"] == "fast"
    assert reply["pid"] in env.daemon("hal.fast").apps


def test_sal_explicit_host(env):
    reply = call(env, env.daemon("sal").address,
                 ACECmdLine("launchApp", app="idle", host="slow"))
    assert reply["host"] == "slow"


def test_sal_unknown_host_fails(env):
    with pytest.raises(CallError, match="no HAL"):
        call(env, env.daemon("sal").address,
             ACECmdLine("launchApp", app="idle", host="ghost"))


def test_sal_random_placement_spreads():
    env = build_env(sal_placement="random")
    hosts = set()
    for _ in range(12):
        reply = call(env, env.daemon("sal").address, ACECmdLine("launchApp", app="idle"))
        hosts.add(reply["host"])
    assert len(hosts) >= 2  # random policy touches multiple hosts


def test_sal_placement_policy_switch(env):
    call(env, env.daemon("sal").address, ACECmdLine("setPlacement", policy="random"))
    assert env.daemon("sal").placement == "random"
    with pytest.raises(CallError):
        call(env, env.daemon("sal").address, ACECmdLine("setPlacement", policy="bogus"))


def test_fig11_balance_srm_beats_random():
    """E6's shape in miniature: resource-aware placement balances load
    better than random placement under a burst of CPU-heavy launches."""
    import numpy as np

    def run_policy(policy):
        env = build_env(sal_placement=policy)
        for _ in range(8):
            call(env, env.daemon("sal").address,
                 ACECmdLine("launchApp", app="cpu_spinner",
                            args="work=800 interval=0.5"))
            env.run_for(1.5)  # give the SRM a chance to observe load
        env.run_for(2.0)
        loads = [h.run_queue_length() + h.cpu.count
                 for h in env.net.hosts.values()]
        return float(np.std(loads))

    assert run_policy("srm") <= run_policy("random") + 1.0
