"""Tests for the streaming substrate: chunks, distribution, conversion."""

import numpy as np
import pytest

from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.services.streams import (
    ConverterDaemon,
    DistributionDaemon,
    MediaChunk,
    StreamSink,
)


# -- MediaChunk codecs ---------------------------------------------------------

def test_audio_chunk_f32_roundtrip():
    samples = np.sin(np.linspace(0, 10, 160)).astype(np.float32)
    chunk = MediaChunk.from_audio(samples, 3, 1.5)
    assert np.allclose(chunk.audio(), samples)
    assert chunk.wire_size() == 160 * 4 + 40


def test_audio_chunk_pcm16_quantizes():
    samples = np.linspace(-1, 1, 160).astype(np.float32)
    chunk = MediaChunk.from_audio(samples, 0, 0.0, fmt="pcm16")
    decoded = chunk.audio()
    assert np.max(np.abs(decoded - samples)) < 1e-3  # quantization noise only
    assert chunk.wire_size() < MediaChunk.from_audio(samples, 0, 0.0).wire_size()


def test_video_chunk_roundtrip():
    frame = (np.arange(120 * 160) % 256).astype(np.uint8).reshape(120, 160)
    chunk = MediaChunk.from_frame(frame, 0, 0.0)
    assert (chunk.frame() == frame).all()


# -- environment helpers ------------------------------------------------------

def stream_env():
    env = ACEEnvironment(seed=3)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    env.add_workstation("media", room="lab", bogomips=1600.0, monitors=False)
    return env


def push_chunks(env, daemon, chunks, gap=0.02):
    """Feed chunks into a stream daemon's UDP port from a probe socket."""
    sock = env.net.bind_datagram(env.net.host("infra"))

    def pusher():
        for chunk in chunks:
            yield from sock.send(daemon.address, chunk)
            yield env.sim.timeout(gap)

    env.run(pusher())


# -- Distribution (Fig. 14) ------------------------------------------------------

def test_distribution_fans_out_to_all_sinks():
    env = stream_env()
    dist = env.add_daemon(
        DistributionDaemon(env.ctx, "dist", env.net.host("media"), room="lab")
    )
    env.boot()
    sinks = [StreamSink(env.ctx, env.net.host("infra")) for _ in range(3)]

    def setup():
        client = env.client(env.net.host("infra"))
        conn = yield from client.connect(dist.address)
        for sink in sinks:
            yield from conn.call(
                ACECmdLine("addSink", host=sink.address.host, port=sink.address.port)
            )
        conn.close()

    env.run(setup())
    chunks = [
        MediaChunk.from_audio(np.zeros(160, dtype=np.float32), i, 0.0) for i in range(5)
    ]
    push_chunks(env, dist, chunks)
    env.run_for(1.0)
    for sink in sinks:
        assert sink.drain() == 5
    assert dist.chunks_in == 5
    assert dist.chunks_out == 15


def test_remove_sink_stops_forwarding():
    env = stream_env()
    dist = env.add_daemon(
        DistributionDaemon(env.ctx, "dist", env.net.host("media"), room="lab")
    )
    env.boot()
    sink = StreamSink(env.ctx, env.net.host("infra"))

    def setup(command):
        client = env.client(env.net.host("infra"))
        yield from client.call(dist.address, command)

    env.run(setup(ACECmdLine("addSink", host=sink.address.host, port=sink.address.port)))
    push_chunks(env, dist, [MediaChunk.from_audio(np.zeros(160, np.float32), 0, 0.0)])
    env.run(setup(ACECmdLine("removeSink", host=sink.address.host, port=sink.address.port)))
    push_chunks(env, dist, [MediaChunk.from_audio(np.zeros(160, np.float32), 1, 0.0)])
    env.run_for(1.0)
    assert sink.drain() == 1  # only the first chunk


# -- Converter (Fig. 13) ----------------------------------------------------------

def test_converter_compresses_video():
    env = stream_env()
    conv = env.add_daemon(
        ConverterDaemon(env.ctx, "conv", env.net.host("media"), room="lab",
                        conversion="raw8:z")
    )
    env.boot()
    sink = StreamSink(env.ctx, env.net.host("infra"))

    def setup():
        client = env.client(env.net.host("infra"))
        yield from client.call(
            conv.address, ACECmdLine("addSink", host=sink.address.host, port=sink.address.port)
        )

    env.run(setup())
    # A compressible frame (smooth gradient).
    frame = (np.add.outer(np.arange(120), np.arange(160)) % 256).astype(np.uint8)
    raw = MediaChunk.from_frame(frame, 0, 0.0)
    push_chunks(env, conv, [raw])
    env.run_for(2.0)
    assert sink.drain() == 1
    compressed = sink.chunks[0]
    assert compressed.fmt == "z"
    assert compressed.wire_size() < raw.wire_size() / 2  # genuinely smaller
    assert (compressed.frame() == frame).all()  # lossless roundtrip


def test_converter_audio_f32_to_pcm16():
    env = stream_env()
    conv = env.add_daemon(
        ConverterDaemon(env.ctx, "conv", env.net.host("media"), room="lab",
                        conversion="f32:pcm16")
    )
    env.boot()
    sink = StreamSink(env.ctx, env.net.host("infra"))

    def setup():
        client = env.client(env.net.host("infra"))
        yield from client.call(
            conv.address, ACECmdLine("addSink", host=sink.address.host, port=sink.address.port)
        )

    env.run(setup())
    samples = np.sin(np.linspace(0, 20, 160)).astype(np.float32)
    push_chunks(env, conv, [MediaChunk.from_audio(samples, 0, 0.0)])
    env.run_for(2.0)
    sink.drain()
    out = sink.chunks[0]
    assert out.fmt == "pcm16"
    assert len(out.data) == len(samples) * 2
    assert np.max(np.abs(out.audio() - samples)) < 1e-3


def test_converter_rejects_wrong_input_format():
    env = stream_env()
    conv = ConverterDaemon(env.ctx, "conv", env.net.host("media"), conversion="raw8:z")
    audio = MediaChunk.from_audio(np.zeros(160, np.float32), 0, 0.0)
    from repro.core.daemon import ServiceError

    with pytest.raises(ServiceError):
        conv.convert(audio)


def test_converter_set_conversion_over_wire():
    env = stream_env()
    conv = env.add_daemon(
        ConverterDaemon(env.ctx, "conv", env.net.host("media"), room="lab")
    )
    env.boot()

    def change():
        client = env.client(env.net.host("infra"))
        reply = yield from client.call(
            conv.address, ACECmdLine("setConversion", conversion="f32:pcm16")
        )
        return reply

    assert env.run(change())["conversion"] == "f32:pcm16"
    assert conv.from_fmt == "f32"


def test_stream_stats():
    env = stream_env()
    dist = env.add_daemon(
        DistributionDaemon(env.ctx, "dist", env.net.host("media"), room="lab")
    )
    env.boot()
    push_chunks(env, dist, [MediaChunk.from_audio(np.zeros(160, np.float32), 0, 0.0)])
    env.run_for(0.5)

    def stats():
        client = env.client(env.net.host("infra"))
        return (yield from client.call(dist.address, ACECmdLine("getStreamStats")))

    reply = env.run(stats())
    assert reply["chunks_in"] == 1
    assert reply["sinks"] == 0
