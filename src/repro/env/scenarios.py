"""Chapter 7 scenario drivers.

Each ``scenario_N`` coroutine replays one of the paper's five scenarios on
an :class:`~repro.env.environment.ACEEnvironment` and returns a result dict
with the measurements the benchmarks report (E12–E15).  They compose: the
standard demo environment runs 1→2→3→4→5 as one continuous story (see
``examples/conference_room.py``).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.lang import ACECmdLine
from repro.services.devices import Epson7350ProjectorDaemon, VCC4CameraDaemon
from repro.services.fiu import noisy_sample

from repro.core.context import SecurityMode
from repro.env.environment import ACEEnvironment
from repro.env.users import UserIdentity


def scenario_client(env: ACEEnvironment, host, name: str):
    """A client suitable for the environment's security mode: plain in
    NONE/SSL, key-backed and POLICY-trusted in SSL_KEYNOTE (scenario
    drivers model administrator tools and device drivers, which a real
    deployment would credential exactly this way)."""
    if env.ctx.security.mode is SecurityMode.SSL_KEYNOTE:
        return env.authorized_client(host, name)
    return env.client(host, principal=name)


def standard_environment(seed: int = 0, **env_kwargs) -> ACEEnvironment:
    """The conference-room demo ACE: infrastructure, the 'hawk' conference
    room with a podium access point + ID devices + camera + projector, and
    two spare office workstations for placement."""
    env = ACEEnvironment(seed=seed, **env_kwargs)
    env.add_infrastructure("infra")
    env.add_room("hawk", building="nichols", dims=(10.0, 8.0, 3.0))
    env.add_room("office21", building="nichols", dims=(4.0, 3.0, 3.0))
    podium = env.add_workstation("podium", room="hawk", bogomips=600.0)
    env.add_workstation("tube", room="office21", bogomips=800.0)
    env.add_workstation("rod", room="office21", bogomips=1000.0)
    env.add_id_devices(podium, room="hawk")
    env.add_device(VCC4CameraDaemon, "camera.hawk", podium, room="hawk")
    env.add_device(Epson7350ProjectorDaemon, "projector.hawk", podium, room="hawk")
    return env


# ---------------------------------------------------------------------------
# Scenario 1 — New User & User Workspace (§7.1, Fig. 18)
# ---------------------------------------------------------------------------

def scenario_1_new_user(env: ACEEnvironment, username: str = "john",
                        fullname: str = "John Doe") -> Generator:
    """The administrator registers John and provisions his default
    workspace: GUI → AUD (addUser + fingerprint), GUI → WSS → SAL → SRM →
    HAL → VNC server."""
    sim = env.sim
    identity = env.create_identity(username, fullname=fullname)
    admin_host = env.daemon("aud").host
    client = scenario_client(env, admin_host, "admin-gui")
    t0 = sim.now

    # The whole scenario is one causal trace: every hop below (AUD insert,
    # WSS placement, the SAL/SRM/HAL fan-out it causes) lands in one tree.
    root = client.begin_trace("scenario1:new-user", user=username)
    status = "interrupted"
    try:
        # Step 1: insert the user and his scanned fingerprint into the AUD.
        yield from client.call(
            env.daemon("aud").address,
            ACECmdLine(
                "addUser",
                username=username,
                fullname=fullname,
                password=identity.password,
                ibutton=identity.ibutton_serial,
                fingerprint=identity.fingerprint_template,
            ),
        )
        t_user_added = sim.now

        # Step 2: the GUI tells the WSS; a default workspace comes up somewhere.
        reply = yield from client.call(
            env.daemon("wss").address,
            ACECmdLine("ensureDefaultWorkspace", user=username),
        )
        t_workspace = sim.now
        status = "ok"
    finally:
        client.end_trace(root, status=status)
    return {
        "username": username,
        "workspace": reply.str("workspace"),
        "vnc_host": reply.str("host"),
        "t_user_added": t_user_added - t0,
        "t_total": t_workspace - t0,
        "trace_id": root.trace_id if root is not None else "",
    }


# ---------------------------------------------------------------------------
# Scenario 2 — User Identification (§7.2)
# ---------------------------------------------------------------------------

def scenario_2_identification(env: ACEEnvironment, username: str = "john",
                              device: str = "fiu.podium",
                              noise: float = 0.05) -> Generator:
    """John presses his thumb to the podium fingerprint scanner."""
    sim = env.sim
    identity = env.users[username]
    fiu = env.daemon(device)
    # Make sure the FIU has loaded John's template from the AUD.
    driver = scenario_client(env, fiu.host, "fiu-driver")
    yield from driver.call(fiu.address, ACECmdLine("loadTemplates"))
    sample = noisy_sample(
        identity.fingerprint_template, env.rng.np(f"scan.{username}.{sim.now}"), noise
    )
    t0 = sim.now
    reply = yield from driver.call(fiu.address, ACECmdLine("scan", sample=sample))
    matched = reply.int("matched") == 1
    # Let the notification chain (FIU → IDMon → AUD) drain.
    yield sim.timeout(0.5)
    aud_location = env.daemon("aud").users[username].location if matched else ""
    return {
        "matched": matched,
        "distance": reply.float("distance"),
        "t_scan": sim.now - t0,
        "aud_location": aud_location,
    }


# ---------------------------------------------------------------------------
# Scenario 3 — User Workspace at the access point (§7.3, Fig. 19)
# ---------------------------------------------------------------------------

def scenario_3_workspace_display(env: ACEEnvironment, username: str = "john",
                                 device: str = "fiu.podium") -> Generator:
    """Identification brings John's workspace up on the podium screen.

    Returns the end-to-end latency from finger press to viewer attach —
    the full 7-step chain of Fig. 19."""
    sim = env.sim
    fiu = env.daemon(device)
    identity = env.users[username]
    driver = scenario_client(env, fiu.host, "fiu-driver3")
    yield from driver.call(fiu.address, ACECmdLine("loadTemplates"))
    before = len(env.trace.filter(kind="viewer-attached"))
    sample = noisy_sample(
        identity.fingerprint_template, env.rng.np(f"scan3.{username}"), 0.05
    )
    t0 = sim.now
    yield from driver.call(fiu.address, ACECmdLine("scan", sample=sample))
    # Wait for the viewer to come up (IDMon → WSS → HAL → viewer attach).
    deadline = sim.now + 30.0
    while sim.now < deadline:
        attaches = env.trace.filter(kind="viewer-attached")
        if len(attaches) > before:
            return {
                "displayed": True,
                "t_end_to_end": attaches[-1].time - t0,
                "display": attaches[-1].detail.get("display"),
                "session": attaches[-1].detail.get("session"),
            }
        yield sim.timeout(0.1)
    return {"displayed": False, "t_end_to_end": float("inf")}


# ---------------------------------------------------------------------------
# Scenario 4 — Multiple User Workspaces (§7.4)
# ---------------------------------------------------------------------------

def scenario_4_multiple_workspaces(env: ACEEnvironment, username: str = "john",
                                   device: str = "fiu.podium") -> Generator:
    """John has a second workspace; identification pops a selector and his
    explicit choice opens the secondary workspace at the podium."""
    sim = env.sim
    identity = env.users[username]
    client = scenario_client(env, env.daemon("wss").host, "admin-gui4")
    wss_addr = env.daemon("wss").address
    yield from client.call(
        wss_addr, ACECmdLine("createWorkspace", user=username, name=f"{username}-work")
    )
    # Identify at the podium: with 2 workspaces the IDMon shows a selector.
    fiu = env.daemon(device)
    driver = scenario_client(env, fiu.host, "fiu-driver4")
    yield from driver.call(fiu.address, ACECmdLine("loadTemplates"))
    selectors_before = len(env.trace.filter(kind="notification-delivered"))
    sample = noisy_sample(
        identity.fingerprint_template, env.rng.np(f"scan4.{username}"), 0.05
    )
    yield from driver.call(fiu.address, ACECmdLine("scan", sample=sample))
    yield sim.timeout(2.0)
    listing = yield from client.call(
        wss_addr, ACECmdLine("listWorkspaces", user=username)
    )
    # John picks the secondary workspace on the selector GUI.
    viewer_before = len(env.trace.filter(kind="viewer-attached"))
    reply = yield from client.call(
        wss_addr,
        ACECmdLine("openWorkspace", user=username, name=f"{username}-work",
                   display=fiu.host.name),
    )
    deadline = sim.now + 30.0
    opened = False
    while sim.now < deadline:
        if len(env.trace.filter(kind="viewer-attached")) > viewer_before:
            opened = True
            break
        yield sim.timeout(0.1)
    del selectors_before
    return {
        "workspaces": list(listing.get("workspaces", ())),
        "opened_secondary": opened,
        "viewer_pid": reply.int("viewer_pid"),
    }


# ---------------------------------------------------------------------------
# Scenario 5 — ACE Services & Devices (§7.5)
# ---------------------------------------------------------------------------

def scenario_5_devices(env: ACEEnvironment, username: str = "john",
                       room: str = "hawk") -> Generator:
    """From his workspace John drives the room: the device GUI asks the
    RoomDB what's present, powers the projector, routes the workspace to
    it, sets camera picture-in-picture, and aims the camera at the podium."""
    sim = env.sim
    client = scenario_client(env, env.daemon(f"projector.{room}").host, f"gui.{username}")
    t0 = sim.now

    # The GUI discovers what is in the room.
    room_reply = yield from client.call(
        env.ctx.roomdb_address, ACECmdLine("lookupRoom", room=room)
    )
    services = [w.split("|")[0] for w in room_reply.get("services", ())]
    projector = env.daemon(f"projector.{room}")
    camera = env.daemon(f"camera.{room}")

    # Projector on; workspace to the screen; camera picture-in-picture.
    proj_conn = yield from client.connect(projector.address)
    yield from proj_conn.call(ACECmdLine("power", state="on"))
    yield from proj_conn.call(ACECmdLine("setInput", source="workspace"))
    yield from proj_conn.call(
        ACECmdLine("setPictureInPicture", source=f"stream:{camera.name}")
    )
    proj_conn.close()

    # Camera on; pan/tilt/zoom toward the podium.
    cam_conn = yield from client.connect(camera.address)
    yield from cam_conn.call(ACECmdLine("power", state="on"))
    aim = yield from cam_conn.call(ACECmdLine("setPosition", x=2.0, y=1.0, z=1.2))
    yield from cam_conn.call(ACECmdLine("setZoom", factor=4.0))
    cam_conn.close()

    return {
        "room_services": services,
        "projector_state": projector.device_state(),
        "camera_state": camera.device_state(),
        "pan": aim.float("pan"),
        "t_total": sim.now - t0,
    }


def run_full_story(env: Optional[ACEEnvironment] = None, seed: int = 0) -> Dict[str, dict]:
    """Scenarios 1–5 back to back on one environment (the paper's demo)."""
    env = env or standard_environment(seed=seed).boot()
    results: Dict[str, dict] = {}
    results["scenario1"] = env.run(scenario_1_new_user(env))
    results["scenario2"] = env.run(scenario_2_identification(env))
    results["scenario3"] = env.run(scenario_3_workspace_display(env))
    results["scenario4"] = env.run(scenario_4_multiple_workspaces(env))
    results["scenario5"] = env.run(scenario_5_devices(env))
    return results
