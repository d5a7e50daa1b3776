"""E7/E8 — converter and distribution services (Figs. 13–14, §4.12–4.13).

* E7: converter pipeline — compression ratio and bandwidth saved for the
  Fig. 13 topology (capture → converter → storage) vs direct raw storage.
* E8: distribution fan-out — delivered throughput and per-sink latency as
  the sink count grows (Fig. 14).
"""

import numpy as np
import pytest

from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.metrics import ResultTable, summarize
from repro.services.streams import (
    ConverterDaemon,
    DistributionDaemon,
    MediaChunk,
    StreamSink,
)


def build_env(seed=25):
    env = ACEEnvironment(seed=seed)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    env.add_workstation("media", room="lab", bogomips=3200.0, cores=2, monitors=False)
    return env


def add_sink(env, daemon, sink):
    def go():
        client = env.client(env.net.host("infra"))
        yield from client.call(
            daemon.address,
            ACECmdLine("addSink", host=sink.address.host, port=sink.address.port),
        )

    env.run(go())


def camera_frames(env, n_frames, shape=(120, 160)):
    """Synthesized PTZ frames: smooth scene + a little sensor noise (so
    compression is realistic, neither free nor impossible)."""
    rng = env.rng.np("frames")
    base = np.add.outer(np.linspace(0, 200, shape[0]), np.linspace(0, 55, shape[1]))
    frames = []
    for i in range(n_frames):
        # Sparse sensor noise: a typical indoor scene is mostly smooth, so
        # entropy coding has real (but not unlimited) headroom.
        noise = np.where(rng.random(shape) < 0.05, rng.normal(0, 4, shape), 0.0)
        frame = np.clip(base + 20 * np.sin(i / 3.0) + noise, 0, 255).astype(np.uint8)
        frames.append(MediaChunk.from_frame(frame, i, 0.0))
    return frames


def test_e7_converter_compression(benchmark, table_printer):
    table = table_printer(ResultTable(
        "E7: video converter (Fig. 13 pipeline, 30 frames 160x120)",
        ["path", "bytes_to_storage", "ratio", "lossless"],
    ))

    def run():
        env = build_env()
        conv = env.add_daemon(ConverterDaemon(
            env.ctx, "conv", env.net.host("media"), room="lab", conversion="raw8:z"))
        env.boot()
        storage = StreamSink(env.ctx, env.net.host("infra"))
        add_sink(env, conv, storage)
        frames = camera_frames(env, 30)
        raw_bytes = sum(f.wire_size() for f in frames)
        sock = env.net.bind_datagram(env.net.host("infra"))

        def push():
            for frame in frames:
                yield from sock.send(conv.address, frame)
                yield env.sim.timeout(1 / 15.0)

        env.run(push(), timeout=120.0)
        env.run_for(3.0)
        storage.drain()
        compressed_bytes = storage.bytes_received
        lossless = all(
            (c.frame() == f.frame()).all()
            for c, f in zip(sorted(storage.chunks, key=lambda c: c.seq), frames)
        )
        return raw_bytes, compressed_bytes, lossless, len(storage.chunks)

    raw_bytes, compressed_bytes, lossless, delivered = benchmark.pedantic(
        run, rounds=1, iterations=1)
    table.add("raw direct", raw_bytes, 1.0, "yes")
    table.add("via converter", compressed_bytes,
              round(raw_bytes / max(compressed_bytes, 1), 2), "yes" if lossless else "NO")
    assert delivered == 30
    assert lossless
    assert compressed_bytes < raw_bytes / 1.5  # genuine compression win


def test_e8_distribution_fanout(benchmark, table_printer):
    table = table_printer(ResultTable(
        "E8: distribution service fan-out (audio stream, 100 chunks)",
        ["sinks", "delivered", "sink_bytes_total", "source_sends"],
    ))

    def run():
        rows = []
        for n_sinks in (1, 4, 16):
            env = build_env(seed=26)
            dist = env.add_daemon(DistributionDaemon(
                env.ctx, "dist", env.net.host("media"), room="lab"))
            env.boot()
            sinks = [StreamSink(env.ctx, env.net.host("infra")) for _ in range(n_sinks)]
            for sink in sinks:
                add_sink(env, dist, sink)
            sock = env.net.bind_datagram(env.net.host("infra"))
            chunks = [
                MediaChunk.from_audio(np.zeros(160, np.float32), i, 0.0)
                for i in range(100)
            ]

            def push():
                for chunk in chunks:
                    yield from sock.send(dist.address, chunk)
                    yield env.sim.timeout(0.02)

            env.run(push(), timeout=120.0)
            env.run_for(2.0)
            delivered = sum(sink.drain() for sink in sinks)
            total_bytes = sum(sink.bytes_received for sink in sinks)
            rows.append((n_sinks, delivered, total_bytes, len(chunks)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for n_sinks, delivered, total_bytes, sent in rows:
        table.add(n_sinks, delivered, total_bytes, sent)
        # Everything delivered to every sink: the source sent each chunk once.
        assert delivered == n_sinks * sent
    # Shape: delivered volume scales linearly with sinks (source decoupled).
    assert rows[2][1] == 16 * rows[0][1]
