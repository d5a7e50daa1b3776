#!/usr/bin/env python
"""The §4.15 high-level audio example (Fig. 15): a two-room conference
with mixing, echo cancellation, recording, and voice commands.

Run:  python examples/audio_conference.py
"""

import numpy as np

from repro import ACECmdLine, ACEEnvironment
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


def main() -> None:
    env = ACEEnvironment(seed=15)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    hawk = env.add_workstation("hawk-av", room="hawk", bogomips=3200.0, cores=2,
                               monitors=False)
    jay = env.add_workstation("jay-av", room="jay", bogomips=3200.0, cores=2,
                              monitors=False)

    # The Fig. 15 building blocks.
    cap_hawk = env.add_daemon(AudioCaptureDaemon(env.ctx, "capture.hawk", hawk, room="hawk"))
    mixer = env.add_daemon(AudioMixerDaemon(env.ctx, "mixer.hawk", hawk, room="hawk"))
    dist = env.add_daemon(DistributionDaemon(env.ctx, "dist.hawk", hawk, room="hawk"))
    play_jay = env.add_daemon(AudioPlayDaemon(env.ctx, "play.jay", jay, room="jay"))
    recorder = env.add_daemon(AudioRecorderDaemon(env.ctx, "recorder", hawk, room="hawk"))
    tts = env.add_daemon(TextToSpeechDaemon(env.ctx, "tts.hawk", hawk, room="hawk"))
    s2c = env.add_daemon(SpeechToCommandDaemon(env.ctx, "s2c.hawk", hawk, room="hawk"))
    far = env.add_daemon(AudioCaptureDaemon(env.ctx, "capture.jay", jay, room="jay"))
    mic = env.add_daemon(AudioCaptureDaemon(env.ctx, "mic.hawk", hawk, room="hawk"))
    canceller = env.add_daemon(EchoCancellationDaemon(env.ctx, "echocancel", hawk, room="hawk"))
    env.boot()

    def wire(src, dst):
        def go():
            client = env.client(env.net.host("infra"))
            yield from client.call(
                src.address,
                ACECmdLine("addSink", host=dst.address.host, port=dst.address.port))

        env.run(go())

    def call(daemon, command):
        def go():
            client = env.client(env.net.host("infra"))
            return (yield from client.call(daemon.address, command))

        return env.run(go())

    # Pipeline: hawk mic + TTS -> mixer -> distribution -> jay speakers + recorder.
    wire(cap_hawk, mixer)
    wire(tts, mixer)
    wire(mixer, dist)
    wire(dist, play_jay)
    wire(dist, recorder)
    wire(tts, s2c)  # the local voice-command loop
    print("pipeline wired: capture+tts -> mixer -> distribution -> "
          "{jay speakers, recorder}; tts -> speech-to-command")

    # Voice vocabulary: "record" erases the recorder (a demo action).
    call(s2c, ACECmdLine("mapCommand", word="record",
                         host=recorder.address.host, port=recorder.address.port,
                         command="getRecording;"))

    # Someone in hawk talks for two seconds.
    call(cap_hawk, ACECmdLine("startCapture"))
    cap_hawk.queue_signal(dsp.speech_like(2 * dsp.SAMPLE_RATE, env.rng.np("talk")))
    env.run_for(2.5)
    heard = play_jay.signal()
    print(f"jay heard {len(heard) / dsp.SAMPLE_RATE:.2f}s of audio "
          f"(rms={np.sqrt(np.mean(heard**2)):.4f})")
    rec = call(recorder, ACECmdLine("getRecording"))
    print(f"recorder captured {rec['seconds']}s")

    # The computer says 'record' — speech-to-command picks it up.
    call(tts, ACECmdLine("say", text="record"))
    env.run_for(2.0)
    print(f"voice commands recognized: {[w for _, w in s2c.recognized]}")

    # Echo cancellation on the return path: jay's audio plays in hawk and
    # leaks back into hawk's microphone; the canceller removes it.
    wire(far, canceller)
    wire(mic, canceller)
    call(canceller, ACECmdLine("setReference", host=far.address.host, port=far.address.port))
    call(canceller, ACECmdLine("setMicrophone", host=mic.address.host, port=mic.address.port))
    rng = env.rng.np("echo")
    far_sig = dsp.speech_like(3 * dsp.SAMPLE_RATE, rng)
    mic_sig = dsp.apply_echo(far_sig, dsp.synth_echo_path(rng))
    far.queue_signal(far_sig)
    mic.queue_signal(mic_sig)
    call(far, ACECmdLine("startCapture"))
    call(mic, ACECmdLine("startCapture"))
    env.run_for(4.0)
    stats = call(canceller, ACECmdLine("getCancelStats"))
    print(f"echo canceller: {stats['suppression_db']} dB suppression "
          f"(mic energy {stats['mic_energy']} -> residual {stats['out_energy']})")


if __name__ == "__main__":
    main()
