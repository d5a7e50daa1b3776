"""Tests for the tracker, path planner, and dial-by-user extensions."""

import numpy as np
import pytest

from repro.apps.ophone import OPhoneDaemon
from repro.core import CallError
from repro.env import ACEEnvironment
from repro.env.scenarios import scenario_1_new_user, standard_environment
from repro.lang import ACECmdLine
from repro.services.fiu import noisy_sample
from repro.services.pathplanner import PathPlannerDaemon
from repro.services.streams import ConverterDaemon, MediaChunk, StreamSink
from repro.services.tracker import PersonnelTrackerDaemon


# ---------------------------------------------------------------------------
# Personnel tracker (§1.1 non-human user)
# ---------------------------------------------------------------------------

def tracked_env():
    env = standard_environment(seed=160)
    env.add_daemon(PersonnelTrackerDaemon(env.ctx, "tracker", env.net.host("infra"),
                                          room="machineroom"))
    # Second room with its own scanner, so movement is observable.
    office = env.add_workstation("officebox", room="office21", monitors=False)
    env.add_id_devices(office, room="office21")
    env.boot()
    env.run(scenario_1_new_user(env))
    return env


def identify_at(env, device_name, username="john"):
    identity = env.users[username]
    fiu = env.daemon(device_name)

    def go():
        driver = env.client(fiu.host, principal="driver")
        yield from driver.call(fiu.address, ACECmdLine("loadTemplates"))
        sample = noisy_sample(identity.fingerprint_template,
                              env.rng.np(f"track.{device_name}.{env.sim.now}"))
        yield from driver.call(fiu.address, ACECmdLine("scan", sample=sample))

    env.run(go())
    env.run_for(1.0)


def test_tracker_follows_user_between_rooms():
    env = tracked_env()
    identify_at(env, "fiu.podium")
    identify_at(env, "fiu.officebox")

    def where():
        client = env.client(env.net.host("infra"), principal="query")
        return (yield from client.call(
            env.daemon("tracker").address, ACECmdLine("whereIsUser", username="john")))

    reply = env.run(where())
    assert reply["location"] == "office21"
    assert reply["device"] == "fiu.officebox"

    def history():
        client = env.client(env.net.host("infra"), principal="query")
        return (yield from client.call(
            env.daemon("tracker").address,
            ACECmdLine("trackHistory", username="john")))

    h = env.run(history())
    assert h["count"] == 2
    rooms = [s.split("|")[1] for s in h["sightings"]]
    assert rooms == ["hawk", "office21"]


def test_tracker_room_occupancy():
    env = tracked_env()
    identify_at(env, "fiu.podium")

    def occupancy(room):
        client = env.client(env.net.host("infra"), principal="query")
        return (yield from client.call(
            env.daemon("tracker").address, ACECmdLine("roomOccupancy", room=room)))

    hawk = env.run(occupancy("hawk"))
    assert hawk["users"] == ("john",)
    identify_at(env, "fiu.officebox")
    hawk2 = env.run(occupancy("hawk"))
    assert hawk2["count"] == 0  # he left


def test_tracker_unknown_user():
    env = tracked_env()

    def go():
        client = env.client(env.net.host("infra"), principal="query")
        with pytest.raises(CallError, match="never seen"):
            yield from client.call(
                env.daemon("tracker").address,
                ACECmdLine("whereIsUser", username="ghost"))

    env.run(go())


# ---------------------------------------------------------------------------
# Automatic Path Creation
# ---------------------------------------------------------------------------

def apc_env():
    env = ACEEnvironment(seed=161)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    media = env.add_workstation("media", room="lab", bogomips=3200.0, monitors=False)
    env.add_daemon(ConverterDaemon(env.ctx, "conv.f32-pcm16", media, room="lab",
                                   conversion="f32:pcm16"))
    env.add_daemon(ConverterDaemon(env.ctx, "conv.pcm16-f32", media, room="lab",
                                   conversion="pcm16:f32"))
    env.add_daemon(ConverterDaemon(env.ctx, "conv.raw8-z", media, room="lab",
                                   conversion="raw8:z"))
    env.add_daemon(PathPlannerDaemon(env.ctx, "apc", env.net.host("infra"),
                                     room="machineroom"))
    env.boot()
    return env


def test_plan_path_single_hop():
    env = apc_env()

    def go():
        client = env.client(env.net.host("infra"), principal="apc-user")
        return (yield from client.call(
            env.daemon("apc").address,
            ACECmdLine("planPath", from_fmt="f32", to_fmt="pcm16")))

    reply = env.run(go())
    assert reply["hops"] == 1
    assert reply["path"] == ("conv.f32-pcm16",)


def test_plan_path_no_route():
    env = apc_env()

    def go():
        client = env.client(env.net.host("infra"), principal="apc-user")
        with pytest.raises(CallError, match="no conversion path"):
            yield from client.call(
                env.daemon("apc").address,
                ACECmdLine("planPath", from_fmt="f32", to_fmt="z"))

    env.run(go())


def test_plan_path_with_the_directory_dead_is_cmd_failed_and_the_planner_serves_on():
    """The handler's directory lookup is unguarded and has no remembered
    answer to fall back on: the lookup's deadline is this command's
    ``cmdFailed``, and the planner answers the next command."""
    env = apc_env()
    env.daemon("asd").kill()

    def go():
        client = env.client(env.net.host("infra"), principal="apc-user")
        apc = env.daemon("apc").address
        t0 = env.sim.now
        with pytest.raises(CallError, match="nothing listening at") as err:
            yield from client.call(apc, ACECmdLine("planPath", from_fmt="f32", to_fmt="pcm16"))
        took = env.sim.now - t0
        pong = yield from client.call(apc, ACECmdLine("ping"))
        return err.value, took, pong

    exc, took, pong = env.run(go())
    assert type(exc) is CallError and exc.reply.name == "cmdFailed"
    assert took < 3.0            # inside LOOKUP_POLICY's deadline
    assert pong.name == "cmdOk"


def test_create_path_wires_and_streams():
    """APC wires source → converter → sink and data actually flows,
    converted."""
    env = apc_env()
    source = env.add_daemon(ConverterDaemon(env.ctx, "conv.pcm16-f32b",
                                            env.net.host("media"), room="lab",
                                            conversion="pcm16:f32"))
    del source  # just another stream daemon to use as a source? use a plain sink
    sink = StreamSink(env.ctx, env.net.host("infra"))
    # Source: a Distribution daemon fed by a probe socket.
    from repro.services.streams import DistributionDaemon

    src = env.add_daemon(DistributionDaemon(env.ctx, "src", env.net.host("media"),
                                            room="lab"))
    env.run_for(1.0)

    def go():
        client = env.client(env.net.host("infra"), principal="apc-user")
        return (yield from client.call(
            env.daemon("apc").address,
            ACECmdLine("createPath", from_fmt="f32", to_fmt="pcm16",
                       source_host=src.address.host, source_port=src.address.port,
                       sink_host=sink.address.host, sink_port=sink.address.port)))

    reply = env.run(go())
    assert reply["hops"] == 1
    # Push an f32 chunk into the source; the sink must receive pcm16.
    sock = env.net.bind_datagram(env.net.host("infra"))

    def push():
        chunk = MediaChunk.from_audio(
            np.sin(np.linspace(0, 6, 160)).astype(np.float32), 0, 0.0)
        yield from sock.send(src.address, chunk)

    env.run(push())
    env.run_for(2.0)
    assert sink.drain() == 1
    assert sink.chunks[0].fmt == "pcm16"


def test_plan_path_identity():
    env = apc_env()

    def go():
        client = env.client(env.net.host("infra"), principal="apc-user")
        return (yield from client.call(
            env.daemon("apc").address,
            ACECmdLine("planPath", from_fmt="f32", to_fmt="f32")))

    assert env.run(go())["hops"] == 0


# ---------------------------------------------------------------------------
# Dial-by-user (§5.5's promised ACE GUI feature)
# ---------------------------------------------------------------------------

def phone_user_env():
    env = standard_environment(seed=162)
    office = env.add_workstation("officebox", room="office21", monitors=False)
    env.add_id_devices(office, room="office21")
    env.add_daemon(OPhoneDaemon(env.ctx, "phone.hawk", env.net.host("podium"), room="hawk"))
    env.add_daemon(OPhoneDaemon(env.ctx, "phone.office", office, room="office21"))
    env.boot()
    env.run(scenario_1_new_user(env))
    return env


def test_dial_user_rings_phone_in_their_room():
    env = phone_user_env()
    identify_at(env, "fiu.officebox")  # john is in office21 now

    def go():
        client = env.client(env.net.host("infra"), principal="caller")
        return (yield from client.call(
            env.daemon("phone.hawk").address, ACECmdLine("dialUser", user="john")))

    reply = env.run(go())
    assert reply["phone"] == "phone.office"
    assert reply["room"] == "office21"
    assert env.daemon("phone.office").state == "in_call"
    assert env.daemon("phone.hawk").state == "in_call"


def test_dial_user_without_location_fails():
    env = phone_user_env()  # john never identified anywhere

    def go():
        client = env.client(env.net.host("infra"), principal="caller")
        with pytest.raises(CallError, match="no known location"):
            yield from client.call(
                env.daemon("phone.hawk").address,
                ACECmdLine("dialUser", user="john"))

    env.run(go())


def test_dial_user_no_phone_in_room():
    env = phone_user_env()
    identify_at(env, "fiu.podium")  # john is in hawk, where only phone.hawk is

    def go():
        client = env.client(env.net.host("infra"), principal="caller")
        with pytest.raises(CallError, match="no O-Phone"):
            # phone.hawk excludes itself, so there's nothing to ring.
            yield from client.call(
                env.daemon("phone.hawk").address,
                ACECmdLine("dialUser", user="john"))

    env.run(go())
