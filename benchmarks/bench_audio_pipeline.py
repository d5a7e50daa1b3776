"""E9 — the full audio-conference pipeline (Fig. 15, §4.15).

Builds the figure's topology (capture → mixer → distribution → remote
play + recorder, echo cancellation on the return path, TTS and speech-to-
command on the local loop) and measures:

* end-to-end audio latency (capture chunk → remote speaker);
* echo suppression (dB) achieved by the NLMS canceller;
* voice-command recognition accuracy over a scripted session.
"""

import numpy as np
import pytest

from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.metrics import ResultTable
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


def build_conference(seed=30):
    env = ACEEnvironment(seed=seed)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    hawk = env.add_workstation("hawk-av", room="hawk", bogomips=3200.0, cores=2,
                               monitors=False)
    jay = env.add_workstation("jay-av", room="jay", bogomips=3200.0, cores=2,
                              monitors=False)
    d = {}
    d["cap_h"] = env.add_daemon(AudioCaptureDaemon(env.ctx, "cap.h", hawk, room="hawk"))
    d["mix_h"] = env.add_daemon(AudioMixerDaemon(env.ctx, "mix.h", hawk, room="hawk"))
    d["dist_h"] = env.add_daemon(DistributionDaemon(env.ctx, "dist.h", hawk, room="hawk"))
    d["play_j"] = env.add_daemon(AudioPlayDaemon(env.ctx, "play.j", jay, room="jay"))
    d["rec"] = env.add_daemon(AudioRecorderDaemon(env.ctx, "rec", hawk, room="hawk"))
    d["tts"] = env.add_daemon(TextToSpeechDaemon(env.ctx, "tts", hawk, room="hawk"))
    d["s2c"] = env.add_daemon(SpeechToCommandDaemon(env.ctx, "s2c", hawk, room="hawk"))
    env.boot()
    return env, d


def wire(env, src, dst):
    def go():
        client = env.client(env.net.host("infra"))
        yield from client.call(
            src.address, ACECmdLine("addSink", host=dst.address.host, port=dst.address.port)
        )

    env.run(go())


def call(env, daemon, command):
    def go():
        client = env.client(env.net.host("infra"))
        return (yield from client.call(daemon.address, command))

    return env.run(go())


def test_e9_end_to_end_latency_and_recording(benchmark, table_printer):
    table = table_printer(ResultTable(
        "E9: conference leg (hawk mic -> mixer -> distribution -> jay speaker)",
        ["metric", "value"],
    ))

    def run():
        env, d = build_conference()
        wire(env, d["cap_h"], d["mix_h"])
        wire(env, d["mix_h"], d["dist_h"])
        wire(env, d["dist_h"], d["play_j"])
        wire(env, d["dist_h"], d["rec"])
        call(env, d["cap_h"], ACECmdLine("startCapture"))
        d["cap_h"].queue_signal(dsp.speech_like(dsp.SAMPLE_RATE, env.rng.np("talk")))
        t0 = env.sim.now
        # Wait for the first chunk to land at jay's speaker.
        while not d["play_j"]._played and env.sim.now < t0 + 5.0:
            env.run_for(0.005)
        first_chunk_latency = env.sim.now - t0
        env.run_for(2.0)
        recorded = d["rec"].recording()
        heard = d["play_j"].signal()
        return first_chunk_latency, len(heard) / dsp.SAMPLE_RATE, len(recorded) / dsp.SAMPLE_RATE

    latency, heard_s, recorded_s = benchmark.pedantic(run, rounds=1, iterations=1)
    table.add("first-chunk latency (ms)", round(latency * 1e3, 3))
    table.add("audio heard at jay (s)", round(heard_s, 2))
    table.add("audio recorded (s)", round(recorded_s, 2))
    # Shape: conversational latency (one chunk + hops), both sinks fed.
    assert latency < 0.25
    assert heard_s > 1.0 and recorded_s > 1.0


def test_e9_echo_suppression(benchmark, table_printer):
    table = table_printer(ResultTable(
        "E9: NLMS echo cancellation on the return path",
        ["window", "suppression_db"],
    ))

    def run():
        env, d = build_conference(seed=31)
        far = env.add_daemon(AudioCaptureDaemon(env.ctx, "far", env.net.host("jay-av"), room="jay"))
        mic = env.add_daemon(AudioCaptureDaemon(env.ctx, "mic", env.net.host("hawk-av"), room="hawk"))
        ec = env.add_daemon(EchoCancellationDaemon(env.ctx, "ec", env.net.host("hawk-av"), room="hawk"))
        env.run_for(1.0)
        wire(env, far, ec)
        wire(env, mic, ec)
        call(env, ec, ACECmdLine("setReference", host=far.address.host, port=far.address.port))
        call(env, ec, ACECmdLine("setMicrophone", host=mic.address.host, port=mic.address.port))
        rng = env.rng.np("echo")
        seconds = 5
        far_sig = dsp.speech_like(seconds * dsp.SAMPLE_RATE, rng)
        mic_sig = dsp.apply_echo(far_sig, dsp.synth_echo_path(rng))
        far.queue_signal(far_sig)
        mic.queue_signal(mic_sig)
        call(env, far, ACECmdLine("startCapture"))
        call(env, mic, ACECmdLine("startCapture"))
        # Suppression over the first second (converging) vs overall.
        env.run_for(1.0)
        early = call(env, ec, ACECmdLine("getCancelStats"))["suppression_db"]
        env.run_for(seconds)
        late = call(env, ec, ACECmdLine("getCancelStats"))["suppression_db"]
        return early, late

    early, late = benchmark.pedantic(run, rounds=1, iterations=1)
    table.add("first second (converging)", round(early, 2))
    table.add("whole run", round(late, 2))
    assert late > early        # the adaptive filter improves over time
    assert late > 8.0          # solid suppression overall


def test_e9_voice_command_accuracy(benchmark, table_printer):
    table = table_printer(ResultTable(
        "E9: voice command recognition (scripted session)",
        ["metric", "value"],
    ))

    def run():
        env, d = build_conference(seed=32)
        wire(env, d["tts"], d["s2c"])
        vocab = ["lights_on", "lights_off", "record", "stop_record", "call_office"]
        for word in vocab:
            call(env, d["s2c"], ACECmdLine(
                "mapCommand", word=word, host=d["rec"].address.host,
                port=d["rec"].address.port, command="getRecording;",
            ))
        script = ["record", "lights_on", "call_office", "stop_record", "lights_off",
                  "record", "lights_on"]
        for word in script:
            call(env, d["tts"], ACECmdLine("say", text=word))
            env.run_for(1.2)
        env.run_for(2.0)
        heard = [w for _, w in d["s2c"].recognized]
        correct = sum(1 for a, b in zip(script, heard) if a == b)
        false_triggers = max(0, len(heard) - len(script))
        return len(script), correct, false_triggers

    spoken, correct, false_triggers = benchmark.pedantic(run, rounds=1, iterations=1)
    table.add("words spoken", spoken)
    table.add("recognized correctly", correct)
    table.add("false triggers", false_triggers)
    assert correct == spoken
    assert false_triggers == 0
