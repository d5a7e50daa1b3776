"""Tests for the O-Phone (§5.5): signalling + full-duplex audio."""

import numpy as np
import pytest

from repro.apps.ophone import OPhoneDaemon
from repro.core import CallError
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.services import dsp


def phone_env(loss_rate=0.0):
    env = ACEEnvironment(seed=23, net_kwargs={"loss_rate": loss_rate})
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    env.add_workstation("desk1", room="office1", monitors=False)
    env.add_workstation("desk2", room="office2", monitors=False)
    alice = env.add_daemon(OPhoneDaemon(env.ctx, "phone.alice", env.net.host("desk1"), room="office1"))
    bob = env.add_daemon(OPhoneDaemon(env.ctx, "phone.bob", env.net.host("desk2"), room="office2"))
    env.boot()
    return env, alice, bob


def call(env, daemon, command, **kw):
    def go():
        client = env.client(env.net.host("infra"))
        return (yield from client.call(daemon.address, command, **kw))

    return env.run(go())


def test_dial_and_connect():
    env, alice, bob = phone_env()
    reply = call(env, alice, ACECmdLine("dial", host="desk2", port=bob.port))
    assert reply["connected"] == 1
    assert reply["setup_s"] < 0.1
    assert alice.state == "in_call" and bob.state == "in_call"
    assert bob.peer_name == "phone.alice"


def test_busy_phone_rejects_second_call():
    env, alice, bob = phone_env()
    call(env, alice, ACECmdLine("dial", host="desk2", port=bob.port))
    carol = env.add_daemon(
        OPhoneDaemon(env.ctx, "phone.carol", env.net.host("infra"), room="machineroom")
    )
    env.run_for(1.0)
    with pytest.raises(CallError, match="rejected"):
        call(env, carol, ACECmdLine("dial", host="desk2", port=bob.port))


def test_dial_unreachable_fails_cleanly():
    env, alice, bob = phone_env()
    with pytest.raises(CallError, match="call failed"):
        call(env, alice, ACECmdLine("dial", host="desk2", port=9999))
    assert alice.state == "idle"


def test_full_duplex_audio():
    env, alice, bob = phone_env()
    call(env, alice, ACECmdLine("dial", host="desk2", port=bob.port))
    alice.queue_voice(dsp.tone(500.0, dsp.SAMPLE_RATE // 2))
    bob.queue_voice(dsp.tone(900.0, dsp.SAMPLE_RATE // 2))
    env.run_for(1.5)
    # Each side hears the *other* side's tone.
    assert dsp.goertzel_power(bob.heard(), 500.0) > 10 * dsp.goertzel_power(bob.heard(), 900.0)
    assert dsp.goertzel_power(alice.heard(), 900.0) > 10 * dsp.goertzel_power(alice.heard(), 500.0)


def test_hangup_stops_media():
    env, alice, bob = phone_env()
    call(env, alice, ACECmdLine("dial", host="desk2", port=bob.port))
    env.run_for(0.5)
    call(env, alice, ACECmdLine("hangup"))
    env.run_for(0.2)
    assert alice.state == "idle" and bob.state == "idle"
    chunks_after_hangup = bob._rx_next
    env.run_for(1.0)
    assert bob._rx_next <= chunks_after_hangup + 2  # uplink stopped


def test_speak_command_queues_voice():
    env, alice, bob = phone_env()
    call(env, alice, ACECmdLine("dial", host="desk2", port=bob.port))
    call(env, alice, ACECmdLine("speak", duration=0.5))
    env.run_for(1.0)
    heard = bob.heard()
    assert float(np.sqrt(np.mean(heard**2))) > 0.01  # actual voice energy


def test_jitter_buffer_tolerates_loss():
    env, alice, bob = phone_env(loss_rate=0.05)
    call(env, alice, ACECmdLine("dial", host="desk2", port=bob.port))
    alice.queue_voice(dsp.speech_like(2 * dsp.SAMPLE_RATE, env.rng.np("talk")))
    env.run_for(3.0)
    heard = bob.heard()
    # Despite ~5% datagram loss the call keeps flowing.
    assert len(heard) > 1.5 * dsp.SAMPLE_RATE
    state = call(env, bob, ACECmdLine("getCallState"))
    assert state["state"] == "in_call"


def test_call_state_report():
    env, alice, bob = phone_env()
    idle = call(env, alice, ACECmdLine("getCallState"))
    assert idle["state"] == "idle"
    call(env, alice, ACECmdLine("dial", host="desk2", port=bob.port))
    busy = call(env, alice, ACECmdLine("getCallState"))
    assert busy["state"] == "in_call"
    assert busy["peer"] == "phone.bob"
