"""Integration tests for the §4.15 audio services (Fig. 15)."""

import numpy as np
import pytest

from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.services import dsp
from repro.services.audio import (
    AudioCaptureDaemon,
    AudioMixerDaemon,
    AudioPlayDaemon,
    AudioRecorderDaemon,
    EchoCancellationDaemon,
    SpeechToCommandDaemon,
    TextToSpeechDaemon,
)
from repro.services.streams import DistributionDaemon


def audio_env():
    env = ACEEnvironment(seed=17)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    env.add_workstation("hawk-av", room="hawk", bogomips=1600.0, monitors=False)
    env.add_workstation("jay-av", room="jay", bogomips=1600.0, monitors=False)
    return env


def wire(env, source, sink_daemon):
    """addSink(source → sink_daemon's UDP port) over the wire."""

    def setup():
        client = env.client(env.net.host("infra"))
        yield from client.call(
            source.address,
            ACECmdLine("addSink", host=sink_daemon.address.host,
                       port=sink_daemon.address.port),
        )

    env.run(setup())


def call(env, daemon, command):
    def go():
        client = env.client(env.net.host("infra"))
        return (yield from client.call(daemon.address, command))

    return env.run(go())


def test_capture_to_play_across_sites():
    """Audio spoken in hawk is heard in jay (the basic conference leg)."""
    env = audio_env()
    cap = env.add_daemon(AudioCaptureDaemon(env.ctx, "cap.hawk", env.net.host("hawk-av"), room="hawk"))
    play = env.add_daemon(AudioPlayDaemon(env.ctx, "play.jay", env.net.host("jay-av"), room="jay"))
    env.boot()
    wire(env, cap, play)
    call(env, cap, ACECmdLine("startCapture"))
    spoken = dsp.speech_like(dsp.SAMPLE_RATE, env.rng.np("spoken"))
    cap.queue_signal(spoken)
    env.run_for(2.0)
    heard = play.signal()
    assert len(heard) >= len(spoken)
    # The spoken second is inside what was heard (exact transport).
    energy = float(np.max(np.abs(heard)))
    assert energy == pytest.approx(float(np.max(np.abs(spoken))), rel=1e-5)


def test_mixer_combines_two_sources():
    env = audio_env()
    cap1 = env.add_daemon(AudioCaptureDaemon(env.ctx, "cap1", env.net.host("hawk-av"), room="hawk"))
    cap2 = env.add_daemon(AudioCaptureDaemon(env.ctx, "cap2", env.net.host("hawk-av"), room="hawk"))
    mixer = env.add_daemon(AudioMixerDaemon(env.ctx, "mix", env.net.host("hawk-av"), room="hawk"))
    play = env.add_daemon(AudioPlayDaemon(env.ctx, "play", env.net.host("jay-av"), room="jay"))
    env.boot()
    wire(env, cap1, mixer)
    wire(env, cap2, mixer)
    wire(env, mixer, play)
    call(env, cap1, ACECmdLine("startCapture"))
    call(env, cap2, ACECmdLine("startCapture"))
    tone1 = dsp.tone(440.0, dsp.SAMPLE_RATE, amplitude=0.3)
    tone2 = dsp.tone(1000.0, dsp.SAMPLE_RATE, amplitude=0.3)
    cap1.queue_signal(tone1)
    cap2.queue_signal(tone2)
    env.run_for(2.0)
    mixed = play.signal()
    assert len(mixed) > 0
    # Both tones present in the mix.
    p440 = dsp.goertzel_power(mixed, 440.0)
    p1000 = dsp.goertzel_power(mixed, 1000.0)
    p1633 = dsp.goertzel_power(mixed, 1633.0)  # absent frequency
    assert p440 > 20 * p1633
    assert p1000 > 20 * p1633


def test_echo_cancellation_daemon_suppresses_echo():
    """Far-end audio echoes into the local mic; the canceller removes it
    while keeping near-end speech."""
    env = audio_env()
    far_cap = env.add_daemon(AudioCaptureDaemon(env.ctx, "far", env.net.host("jay-av"), room="jay"))
    mic_cap = env.add_daemon(AudioCaptureDaemon(env.ctx, "mic", env.net.host("hawk-av"), room="hawk"))
    ec = env.add_daemon(EchoCancellationDaemon(env.ctx, "ec", env.net.host("hawk-av"), room="hawk"))
    out = env.add_daemon(AudioPlayDaemon(env.ctx, "out", env.net.host("jay-av"), room="jay"))
    env.boot()
    wire(env, far_cap, ec)
    wire(env, mic_cap, ec)
    wire(env, ec, out)
    call(env, ec, ACECmdLine("setReference", host=far_cap.address.host, port=far_cap.address.port))
    call(env, ec, ACECmdLine("setMicrophone", host=mic_cap.address.host, port=mic_cap.address.port))

    rng = env.rng.np("echo-test")
    seconds = 4
    far = dsp.speech_like(seconds * dsp.SAMPLE_RATE, rng)
    path = dsp.synth_echo_path(rng)
    mic = dsp.apply_echo(far, path)  # pure echo, no near speech
    far_cap.queue_signal(far)
    mic_cap.queue_signal(mic)
    call(env, far_cap, ACECmdLine("startCapture"))
    call(env, mic_cap, ACECmdLine("startCapture"))
    env.run_for(seconds + 1.0)
    stats = call(env, ec, ACECmdLine("getCancelStats"))
    assert stats["suppression_db"] > 10.0
    residual = out.signal()
    # Residual energy in the converged tail is far below the echo energy.
    tail = dsp.SAMPLE_RATE
    assert dsp.erle_db(mic[-tail:], residual[-tail:][: tail]) > 15.0


def test_recorder_records_conference():
    env = audio_env()
    cap = env.add_daemon(AudioCaptureDaemon(env.ctx, "cap", env.net.host("hawk-av"), room="hawk"))
    dist = env.add_daemon(DistributionDaemon(env.ctx, "dist", env.net.host("hawk-av"), room="hawk"))
    rec = env.add_daemon(AudioRecorderDaemon(env.ctx, "rec", env.net.host("jay-av"), room="jay"))
    play = env.add_daemon(AudioPlayDaemon(env.ctx, "play", env.net.host("jay-av"), room="jay"))
    env.boot()
    wire(env, cap, dist)
    wire(env, dist, rec)
    wire(env, dist, play)
    call(env, cap, ACECmdLine("startCapture"))
    cap.queue_signal(dsp.tone(600.0, dsp.SAMPLE_RATE // 2))
    env.run_for(1.5)
    reply = call(env, rec, ACECmdLine("getRecording"))
    assert reply["seconds"] >= 0.5
    assert np.allclose(rec.recording()[: len(play.signal())], play.signal())


def test_tts_to_speech_command_loop():
    """TTS says 'record'; SpeechToCommand hears it and fires the mapped
    command at the recorder."""
    env = audio_env()
    tts = env.add_daemon(TextToSpeechDaemon(env.ctx, "tts", env.net.host("hawk-av"), room="hawk"))
    s2c = env.add_daemon(SpeechToCommandDaemon(env.ctx, "s2c", env.net.host("hawk-av"), room="hawk"))
    rec = env.add_daemon(AudioRecorderDaemon(env.ctx, "rec", env.net.host("jay-av"), room="jay"))
    env.boot()
    wire(env, tts, s2c)
    call(env, s2c, ACECmdLine(
        "mapCommand", word="record", host=rec.address.host, port=rec.address.port,
        command="eraseRecording;",
    ))
    call(env, s2c, ACECmdLine(
        "mapCommand", word="stop", host=rec.address.host, port=rec.address.port,
        command="getRecording;",
    ))
    call(env, tts, ACECmdLine("say", text="record"))
    env.run_for(2.0)
    words = [w for _, w in s2c.recognized]
    assert words == ["record"]
    assert not env.trace.filter(kind="voice-command-failed")


def test_speech_command_ignores_plain_speech():
    env = audio_env()
    cap = env.add_daemon(AudioCaptureDaemon(env.ctx, "cap", env.net.host("hawk-av"), room="hawk"))
    s2c = env.add_daemon(SpeechToCommandDaemon(env.ctx, "s2c", env.net.host("hawk-av"), room="hawk"))
    env.boot()
    wire(env, cap, s2c)
    call(env, s2c, ACECmdLine(
        "mapCommand", word="record", host=cap.address.host, port=cap.address.port,
        command="startCapture;",
    ))
    call(env, cap, ACECmdLine("startCapture"))
    cap.queue_signal(dsp.speech_like(2 * dsp.SAMPLE_RATE, env.rng.np("chatter")))
    env.run_for(3.0)
    assert s2c.recognized == []


def test_map_command_validates_command_text():
    env = audio_env()
    s2c = env.add_daemon(SpeechToCommandDaemon(env.ctx, "s2c", env.net.host("hawk-av"), room="hawk"))
    env.boot()
    from repro.core import CallError

    def go():
        client = env.client(env.net.host("infra"))
        with pytest.raises(CallError, match="unparseable"):
            yield from client.call(
                s2c.address,
                ACECmdLine("mapCommand", word="bad", host="h", port=1,
                           command="not a command ="),
            )

    env.run(go())


def test_full_conference_pipeline():
    """The Fig. 15 shape: two sites, mixers, distribution, recording."""
    env = audio_env()
    hawk, jay = env.net.host("hawk-av"), env.net.host("jay-av")
    cap_h = env.add_daemon(AudioCaptureDaemon(env.ctx, "cap.h", hawk, room="hawk"))
    cap_j = env.add_daemon(AudioCaptureDaemon(env.ctx, "cap.j", jay, room="jay"))
    mix_h = env.add_daemon(AudioMixerDaemon(env.ctx, "mix.h", hawk, room="hawk"))
    dist_h = env.add_daemon(DistributionDaemon(env.ctx, "dist.h", hawk, room="hawk"))
    play_j = env.add_daemon(AudioPlayDaemon(env.ctx, "play.j", jay, room="jay"))
    play_h = env.add_daemon(AudioPlayDaemon(env.ctx, "play.h", hawk, room="hawk"))
    rec = env.add_daemon(AudioRecorderDaemon(env.ctx, "rec", hawk, room="hawk"))
    env.boot()
    # hawk outbound: capture -> mixer -> distribution -> (jay speakers, recorder)
    wire(env, cap_h, mix_h)
    wire(env, mix_h, dist_h)
    wire(env, dist_h, play_j)
    wire(env, dist_h, rec)
    # jay outbound: capture -> hawk speakers (direct leg)
    wire(env, cap_j, play_h)
    call(env, cap_h, ACECmdLine("startCapture"))
    call(env, cap_j, ACECmdLine("startCapture"))
    cap_h.queue_signal(dsp.tone(500.0, dsp.SAMPLE_RATE))
    cap_j.queue_signal(dsp.tone(900.0, dsp.SAMPLE_RATE))
    env.run_for(2.5)
    # jay hears hawk's 500 Hz; hawk hears jay's 900 Hz; both recorded at hawk.
    assert dsp.goertzel_power(play_j.signal(), 500.0) > 10 * dsp.goertzel_power(play_j.signal(), 900.0)
    assert dsp.goertzel_power(play_h.signal(), 900.0) > 10 * dsp.goertzel_power(play_h.signal(), 500.0)
    assert dsp.goertzel_power(rec.recording(), 500.0) > 0.01
