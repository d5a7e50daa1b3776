"""Audio services (§4.15, Fig. 15).

The eight building blocks of the paper's high-level audio example, as
stream daemons over the UDP data channel:

=====================  =====================================================
Daemon                 Function (paper wording)
=====================  =====================================================
AudioCaptureDaemon     "captures an audio signal from a microphone and
                       digitizes it so that it may be streamed"
AudioPlayDaemon        "plays an input audio signal on an output device"
AudioMixerDaemon       "combines multiple audio signals into one"
EchoCancellationDaemon "removes redundant audio signals (with an arbitrary
                       amount of delay)" — NLMS adaptive filter
AudioRecorderDaemon    "records on hard media a given input audio stream"
TextToSpeechDaemon     "converts text messages into an audible voice signal"
SpeechToCommandDaemon  "analyses an input audio signal for specific voice
                       commands and converts them ... to a well-known ACE
                       service command"
DistributionDaemon     (in :mod:`repro.services.streams`)
=====================  =====================================================
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics, parse_command
from repro.net import Address
from repro.core.client import CallError
from repro.core.daemon import Request, ServiceError
from repro.services import dsp
from repro.services.streams import MediaChunk, StreamDaemon

CHUNK_PERIOD = dsp.CHUNK_SAMPLES / dsp.SAMPLE_RATE  # 20 ms


class AudioCaptureDaemon(StreamDaemon):
    """A microphone: streams queued signals (or silence) in real time."""

    service_type = "AudioCapture"

    def __init__(self, ctx, name, host, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.capturing = False
        self.seq = 0
        self._pending: deque = deque()  # queued numpy signals

    def build_semantics(self, sem: CommandSemantics) -> None:
        super().build_semantics(sem)
        sem.define("startCapture")

    # -- signal injection (the simulated acoustic world) --------------------
    def queue_signal(self, signal: np.ndarray) -> None:
        """What sound reaches this microphone next."""
        for block in dsp.chunk_signal(signal):
            self._pending.append(block)

    def cmd_startCapture(self, request: Request) -> dict:
        if not self.capturing:
            self.capturing = True
            self._spawn(self._capture_loop(), "capture")
        return {"capturing": 1}

    def _capture_loop(self) -> Generator:
        silence = np.zeros(dsp.CHUNK_SAMPLES, dtype=np.float32)
        while self.running:
            block = self._pending.popleft() if self._pending else silence
            chunk = MediaChunk.from_audio(block, self.seq, self.ctx.sim.now)
            self.seq += 1
            yield from self.emit(chunk)
            yield self.ctx.sim.timeout(CHUNK_PERIOD)


class AudioPlayDaemon(StreamDaemon):
    """A loudspeaker: terminal sink that 'plays' whatever arrives."""

    service_type = "AudioPlay"

    def __init__(self, ctx, name, host, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self._played: List[Tuple[int, np.ndarray]] = []

    def build_semantics(self, sem: CommandSemantics) -> None:
        super().build_semantics(sem)
        sem.define("getPlayStats")

    def on_chunk(self, source: Address, chunk: MediaChunk):
        self._played.append((chunk.seq, chunk.audio()))
        return None

    def signal(self) -> np.ndarray:
        if not self._played:
            return np.zeros(0, dtype=np.float32)
        return np.concatenate([a for _, a in sorted(self._played, key=lambda p: p[0])])

    def cmd_getPlayStats(self, request: Request) -> dict:
        signal = self.signal()
        return {
            "chunks": len(self._played),
            "seconds": round(len(signal) / dsp.SAMPLE_RATE, 4),
            "rms": float(round(np.sqrt(np.mean(signal**2)) if len(signal) else 0.0, 6)),
        }


class AudioMixerDaemon(StreamDaemon):
    """Combines multiple input streams into one (sum, clipped)."""

    service_type = "AudioMixer"

    def __init__(self, ctx, name, host, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self._latest: Dict[Address, Dict[int, np.ndarray]] = {}
        self._clock_source: Optional[Address] = None
        self.out_seq = 0

    def on_chunk(self, source: Address, chunk: MediaChunk) -> Generator:
        per_source = self._latest.setdefault(source, {})
        per_source[chunk.seq] = chunk.audio()
        if len(per_source) > 8:  # bound memory: keep the freshest chunks
            for old in sorted(per_source)[:-8]:
                del per_source[old]
        if self._clock_source is None:
            self._clock_source = source
        if source != self._clock_source:
            return  # only the clock source triggers output
        mixed = np.zeros(dsp.CHUNK_SAMPLES, dtype=np.float64)
        for addr, chunks in self._latest.items():
            if chunk.seq in chunks:
                mixed[: len(chunks[chunk.seq])] += chunks[chunk.seq]
            elif chunks:
                latest = chunks[max(chunks)]
                mixed[: len(latest)] += latest
        mixed = np.clip(mixed, -1.0, 1.0).astype(np.float32)
        out = MediaChunk.from_audio(mixed, self.out_seq, self.ctx.sim.now)
        self.out_seq += 1
        yield from self.emit(out)


class EchoCancellationDaemon(StreamDaemon):
    """NLMS echo canceller: mic input minus the estimated echo of the
    reference (far-end) signal."""

    service_type = "EchoCancel"

    def __init__(self, ctx, name, host, *, taps: int = 64, mu: float = 0.5, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.filter = dsp.NLMSFilter(taps=taps, mu=mu)
        self.reference_addr: Optional[Address] = None
        self.microphone_addr: Optional[Address] = None
        self._ref_chunks: Dict[int, np.ndarray] = {}
        self._mic_chunks: Dict[int, np.ndarray] = {}
        self.mic_energy = 0.0
        self.out_energy = 0.0

    def build_semantics(self, sem: CommandSemantics) -> None:
        super().build_semantics(sem)
        sem.define("setReference", ArgSpec("host", ArgType.STRING), ArgSpec("port", ArgType.INTEGER))
        sem.define("setMicrophone", ArgSpec("host", ArgType.STRING), ArgSpec("port", ArgType.INTEGER))
        sem.define("getCancelStats")

    def cmd_setReference(self, request: Request) -> dict:
        self.reference_addr = Address(request.command.str("host"), request.command.int("port"))
        return {}

    def cmd_setMicrophone(self, request: Request) -> dict:
        self.microphone_addr = Address(request.command.str("host"), request.command.int("port"))
        return {}

    def cmd_getCancelStats(self, request: Request) -> dict:
        suppression_db = 0.0
        if self.out_energy > 0 and self.mic_energy > 0:
            suppression_db = 10.0 * float(np.log10(self.mic_energy / self.out_energy))
        return {
            "mic_energy": round(self.mic_energy, 6),
            "out_energy": round(self.out_energy, 6),
            "suppression_db": round(suppression_db, 3),
        }

    def on_chunk(self, source: Address, chunk: MediaChunk) -> Generator:
        samples = chunk.audio()
        if source == self.reference_addr:
            self._ref_chunks[chunk.seq] = samples
        elif source == self.microphone_addr:
            self._mic_chunks[chunk.seq] = samples
        else:
            return
        # Process every seq for which both sides have arrived.
        ready = sorted(set(self._ref_chunks) & set(self._mic_chunks))
        for seq in ready:
            ref = self._ref_chunks.pop(seq)
            mic = self._mic_chunks.pop(seq)
            n = min(len(ref), len(mic))
            out = self.filter.process(ref[:n], mic[:n])
            self.mic_energy += float(np.sum(mic[:n].astype(np.float64) ** 2))
            self.out_energy += float(np.sum(out.astype(np.float64) ** 2))
            yield from self.host.execute(0.5)  # per-block filter work
            yield from self.emit(MediaChunk.from_audio(out, seq, self.ctx.sim.now))
        # Bound the reorder buffers.
        for buf in (self._ref_chunks, self._mic_chunks):
            while len(buf) > 64:
                del buf[min(buf)]


class AudioRecorderDaemon(StreamDaemon):
    """Records the incoming stream 'on hard media'."""

    service_type = "AudioRecorder"

    def __init__(self, ctx, name, host, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self._chunks: List[MediaChunk] = []

    def build_semantics(self, sem: CommandSemantics) -> None:
        super().build_semantics(sem)
        sem.define("getRecording")
        sem.define("eraseRecording")

    def on_chunk(self, source: Address, chunk: MediaChunk):
        self._chunks.append(chunk)
        return None

    def recording(self) -> np.ndarray:
        ordered = sorted(self._chunks, key=lambda c: c.seq)
        if not ordered:
            return np.zeros(0, dtype=np.float32)
        return np.concatenate([c.audio() for c in ordered])

    def cmd_getRecording(self, request: Request) -> dict:
        signal = self.recording()
        return {"chunks": len(self._chunks),
                "seconds": round(len(signal) / dsp.SAMPLE_RATE, 4)}

    def cmd_eraseRecording(self, request: Request) -> dict:
        erased = len(self._chunks)
        self._chunks.clear()
        return {"erased": erased}


class TextToSpeechDaemon(StreamDaemon):
    """Converts text into the audible tone-signature 'voice'."""

    service_type = "TextToSpeech"

    def __init__(self, ctx, name, host, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.seq = 0

    def build_semantics(self, sem: CommandSemantics) -> None:
        super().build_semantics(sem)
        sem.define("say", ArgSpec("text", ArgType.STRING))

    def cmd_say(self, request: Request) -> dict:
        text = request.command.str("text")
        words = [w for w in text.split() if w]
        signal_parts = [dsp.synth_word(w) for w in words]
        # Inter-word pause long enough to flush a detector analysis window.
        gap = np.zeros(int(0.3 * dsp.SAMPLE_RATE), dtype=np.float32)
        full = np.concatenate([p for w in signal_parts for p in (w, gap)]) if words else gap
        self._spawn(self._stream_out(full), "tts-stream")
        return {"words": len(words),
                "seconds": round(len(full) / dsp.SAMPLE_RATE, 4)}

    def _stream_out(self, signal: np.ndarray) -> Generator:
        for block in dsp.chunk_signal(signal):
            chunk = MediaChunk.from_audio(block, self.seq, self.ctx.sim.now)
            self.seq += 1
            yield from self.emit(chunk)
            yield self.ctx.sim.timeout(CHUNK_PERIOD)


class SpeechToCommandDaemon(StreamDaemon):
    """Listens for command words and fires mapped ACE commands."""

    service_type = "SpeechToCommand"

    #: analysis window (seconds) and re-trigger holdoff
    WINDOW_S = 0.25
    HOLDOFF_S = 0.6

    def __init__(self, ctx, name, host, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        #: word -> (target address, command string)
        self.mappings: Dict[str, Tuple[Address, str]] = {}
        self._window: deque = deque(maxlen=int(self.WINDOW_S / CHUNK_PERIOD))
        self._last_trigger: Dict[str, float] = {}
        self.recognized: List[Tuple[float, str]] = []

    def build_semantics(self, sem: CommandSemantics) -> None:
        super().build_semantics(sem)
        sem.define(
            "mapCommand",
            ArgSpec("word", ArgType.WORD),
            ArgSpec("host", ArgType.STRING),
            ArgSpec("port", ArgType.INTEGER),
            ArgSpec("command", ArgType.STRING),
            description="voice word → ACE command on a target service",
        )
        sem.define(
            "commandRecognized",
            ArgSpec("word", ArgType.WORD),
            description="emitted whenever a voice command is heard",
        )

    def cmd_mapCommand(self, request: Request) -> dict:
        cmd = request.command
        try:
            parse_command(cmd.str("command"))  # validate at registration
        except Exception as exc:
            raise ServiceError(f"unparseable mapped command: {exc}")
        self.mappings[cmd.str("word")] = (
            Address(cmd.str("host"), cmd.int("port")),
            cmd.str("command"),
        )
        return {"words": len(self.mappings)}

    def cmd_commandRecognized(self, request: Request) -> dict:
        return {"word": request.command.str("word")}

    def on_chunk(self, source: Address, chunk: MediaChunk) -> Generator:
        self._window.append(chunk.audio())
        if len(self._window) < self._window.maxlen:
            return
        signal = np.concatenate(list(self._window))
        word = dsp.detect_word(signal, list(self.mappings))
        if word is None:
            return
        now = self.ctx.sim.now
        if now - self._last_trigger.get(word, -1e9) < self.HOLDOFF_S:
            return
        self._last_trigger[word] = now
        self._window.clear()  # consume the detected utterance
        self.recognized.append((now, word))
        yield from self.host.execute(2.0)  # recognition work
        yield from self.self_execute(ACECmdLine("commandRecognized", word=word))
        target, command_text = self.mappings[word]
        try:
            yield from self.client.call(target, parse_command(command_text))
        except CallError:
            self.ctx.trace.emit(self.ctx.sim.now, self.name, "voice-command-failed",
                                word=word)
