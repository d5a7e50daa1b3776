"""Extra coverage for the streaming substrate and audio services."""

import numpy as np
import pytest

from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.services import dsp
from repro.services.audio import AudioMixerDaemon, AudioPlayDaemon, TextToSpeechDaemon
from repro.services.streams import MediaChunk, StreamSink


def env_with(daemon_cls, name, **kw):
    env = ACEEnvironment(seed=250)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    host = env.add_workstation("media", room="lab", bogomips=3200.0, monitors=False)
    daemon = env.add_daemon(daemon_cls(env.ctx, name, host, room="lab", **kw))
    env.boot()
    return env, daemon


def call(env, daemon, command):
    def go():
        client = env.client(env.net.host("infra"))
        return (yield from client.call(daemon.address, command))

    return env.run(go())


def test_stream_sink_orders_by_seq():
    env, play = env_with(AudioPlayDaemon, "play")
    sink = StreamSink(env.ctx, env.net.host("infra"))
    # Deliver out of order directly (bypassing the network's FIFO).
    for seq in (2, 0, 1):
        block = np.full(160, float(seq), dtype=np.float32)
        sink.chunks.append(MediaChunk.from_audio(block, seq, 0.0))
    signal = sink.audio_signal()
    assert signal[0] == 0.0 and signal[160] == 1.0 and signal[320] == 2.0


def test_play_stats_over_wire():
    env, play = env_with(AudioPlayDaemon, "play")
    sock = env.net.bind_datagram(env.net.host("infra"))

    def push():
        tone = dsp.tone(440.0, dsp.CHUNK_SAMPLES, amplitude=0.5)
        for i in range(5):
            yield from sock.send(play.address, MediaChunk.from_audio(tone, i, 0.0))
            yield env.sim.timeout(0.02)

    env.run(push())
    env.run_for(0.5)
    stats = call(env, play, ACECmdLine("getPlayStats"))
    assert stats["chunks"] == 5
    assert stats["seconds"] == pytest.approx(5 * 0.02, abs=1e-6)
    assert 0.3 < stats["rms"] < 0.4  # 0.5-amplitude sine -> rms ≈ 0.354


def test_mixer_bounds_per_source_buffer():
    env, mixer = env_with(AudioMixerDaemon, "mix")
    sock = env.net.bind_datagram(env.net.host("infra"))

    def push():
        for i in range(30):
            block = np.zeros(dsp.CHUNK_SAMPLES, np.float32)
            yield from sock.send(mixer.address, MediaChunk.from_audio(block, i, 0.0))
            yield env.sim.timeout(0.005)

    env.run(push())
    env.run_for(0.5)
    per_source = next(iter(mixer._latest.values()))
    assert len(per_source) <= 8  # memory bound honoured


def test_tts_multi_word_say():
    env, tts = env_with(TextToSpeechDaemon, "tts")
    sink = StreamSink(env.ctx, env.net.host("infra"))
    call(env, tts, ACECmdLine("addSink", host=sink.address.host,
                              port=sink.address.port))
    reply = call(env, tts, ACECmdLine("say", text="record stop_record"))
    assert reply["words"] == 2
    env.run_for(reply["seconds"] + 1.0)
    sink.drain()
    signal = sink.audio_signal()
    # Both words' signature tones are present in the rendered speech.
    for word in ("record", "stop_record"):
        f_low, f_high = dsp.word_signature(word)
        assert dsp.goertzel_power(signal, f_low) > 0.001
        assert dsp.goertzel_power(signal, f_high) > 0.001


def test_recorder_erase():
    from repro.services.audio import AudioRecorderDaemon

    env, rec = env_with(AudioRecorderDaemon, "rec")
    sock = env.net.bind_datagram(env.net.host("infra"))

    def push():
        yield from sock.send(rec.address, MediaChunk.from_audio(
            np.zeros(160, np.float32), 0, 0.0))

    env.run(push())
    env.run_for(0.2)
    assert call(env, rec, ACECmdLine("getRecording"))["chunks"] == 1
    erased = call(env, rec, ACECmdLine("eraseRecording"))
    assert erased["erased"] == 1
    assert len(rec.recording()) == 0


def test_non_media_datagrams_ignored():
    env, play = env_with(AudioPlayDaemon, "play")
    sock = env.net.bind_datagram(env.net.host("infra"))

    def push():
        yield from sock.send(play.address, "not a media chunk")

    env.run(push())
    env.run_for(0.2)
    assert play.chunks_in == 0
