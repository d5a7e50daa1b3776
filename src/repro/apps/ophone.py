"""O-Phone — full-duplex telephone over IP (§5.5).

The paper adapts the Gnome O-Phone; here it is an ACE stream daemon a user
runs from a workspace: ``dial`` another O-Phone, signalling goes over the
command channel (invite → accept), and while the call is up both sides
stream microphone audio to each other over UDP with a small reorder
(jitter) buffer on the receive side.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.net import Address
from repro.core.client import CallError, Service
from repro.core.daemon import Request, ServiceError
from repro.services import dsp
from repro.services.audio import CHUNK_PERIOD
from repro.services.streams import MediaChunk, StreamDaemon


class OPhoneDaemon(StreamDaemon):
    """One telephone endpoint."""

    service_type = "OPhone"

    def __init__(self, ctx, name, host, *, jitter_chunks: int = 3, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.jitter_chunks = jitter_chunks
        self.state = "idle"  # idle | dialing | in_call
        self.peer: Optional[Address] = None
        self.peer_name: str = ""
        self._mic_queue: deque = deque()
        self._mic_seq = 0
        self._rx_buffer: Dict[int, np.ndarray] = {}
        self._rx_next = 0
        self._speaker: List[np.ndarray] = []
        self.calls_made = 0
        self.calls_received = 0
        self.setup_latency: Optional[float] = None

    def build_semantics(self, sem: CommandSemantics) -> None:
        super().build_semantics(sem)
        sem.define(
            "dial",
            ArgSpec("host", ArgType.STRING),
            ArgSpec("port", ArgType.INTEGER),
            description="place a call to another O-Phone",
        )
        sem.define("hangup")
        sem.define("getCallState")
        sem.define(
            "dialUser",
            ArgSpec("user", ArgType.STRING),
            description="the §5.5 'ACE GUI' feature: call a person, not a "
                        "number — resolves their location via AUD + ASD",
        )
        sem.define(
            "invite",
            ArgSpec("caller", ArgType.STRING),
            ArgSpec("host", ArgType.STRING),
            ArgSpec("port", ArgType.INTEGER),
            description="inbound call signalling (phone-to-phone)",
        )
        sem.define("remoteHangup", ArgSpec("caller", ArgType.STRING, required=False))
        sem.define("speak", ArgSpec("duration", ArgType.NUMBER))

    # ------------------------------------------------------------------
    # Signalling
    # ------------------------------------------------------------------
    def cmd_dial(self, request: Request) -> Generator:
        if self.state != "idle":
            raise ServiceError(f"phone busy ({self.state})")
        cmd = request.command
        peer = Address(cmd.str("host"), cmd.int("port"))
        self.state = "dialing"
        t0 = self.ctx.sim.now
        try:
            reply = yield from self.client.call(
                peer,
                ACECmdLine("invite", caller=self.name,
                           host=self.host.name, port=self.port),
            )
        except CallError as exc:
            self.state = "idle"
            raise ServiceError(f"call failed: {exc}")
        if reply.int("accepted", 0) != 1:
            self.state = "idle"
            raise ServiceError("call rejected")
        self._begin_call(peer, reply.str("callee", ""))
        self.setup_latency = self.ctx.sim.now - t0
        self.calls_made += 1
        return {"connected": 1, "setup_s": round(self.setup_latency, 6)}

    def cmd_dialUser(self, request: Request) -> Generator:
        """Call a *person*: find where they last identified (AUD), find an
        O-Phone in that room (ASD), and dial it."""
        from repro.services.asd import asd_lookup

        username = request.command.str("user")
        try:
            user_reply = yield from self.client.call(
                Service(name="aud"), ACECmdLine("getUser", username=username)
            )
        except CallError as exc:
            raise ServiceError(f"cannot resolve user {username!r}: {exc}")
        location = user_reply.str("location", "unknown")
        if location == "unknown":
            raise ServiceError(f"user {username!r} has no known location")
        phones = yield from asd_lookup(self.client, self.ctx.asd_address,
                                       cls="OPhone", room=location)
        phones = [p for p in phones if p.name != self.name]
        if not phones:
            raise ServiceError(f"no O-Phone in room {location!r}")
        dial = self.semantics.validate(
            ACECmdLine("dial", host=phones[0].host, port=phones[0].port)
        )
        reply = yield from self.cmd_dial(
            Request(command=dial, principal=request.principal,
                    received_at=self.ctx.sim.now)
        )
        reply = dict(reply)
        reply.update(user=username, room=location, phone=phones[0].name)
        return reply

    def cmd_invite(self, request: Request) -> dict:
        cmd = request.command
        if self.state != "idle":
            return {"accepted": 0}
        peer = Address(cmd.str("host"), cmd.int("port"))
        self._begin_call(peer, cmd.str("caller"))
        self.calls_received += 1
        return {"accepted": 1, "callee": self.name}

    def _begin_call(self, peer: Address, peer_name: str) -> None:
        self.state = "in_call"
        self.peer = peer
        self.peer_name = peer_name
        self._rx_next = 0
        self._rx_buffer.clear()
        self._mic_seq = 0
        self._spawn(self._uplink_loop(), "uplink")
        self.ctx.trace.emit(self.ctx.sim.now, self.name, "call-connected", peer=peer_name)

    def cmd_hangup(self, request: Request) -> Generator:
        if self.state != "in_call":
            return {"hung_up": 0}
        peer, self.peer = self.peer, None
        self.state = "idle"
        try:
            yield from self.client.call(
                peer, ACECmdLine("remoteHangup", caller=self.name)
            )
        except CallError:
            pass
        return {"hung_up": 1}

    def cmd_remoteHangup(self, request: Request) -> dict:
        self.state = "idle"
        self.peer = None
        return {}

    def cmd_getCallState(self, request: Request) -> dict:
        return {"state": self.state, "peer": self.peer_name or "none",
                "rx_chunks": self._rx_next}

    # ------------------------------------------------------------------
    # Media
    # ------------------------------------------------------------------
    def cmd_speak(self, request: Request) -> dict:
        """The user talks into the handset for ``duration`` seconds."""
        duration = request.command.float("duration")
        rng = self.ctx.rng.np(f"ophone.{self.name}.{self.ctx.sim.now}")
        signal = dsp.speech_like(int(duration * dsp.SAMPLE_RATE), rng)
        self.queue_voice(signal)
        return {"queued_s": duration}

    def queue_voice(self, signal: np.ndarray) -> None:
        for block in dsp.chunk_signal(signal):
            self._mic_queue.append(block)

    def _uplink_loop(self) -> Generator:
        silence = np.zeros(dsp.CHUNK_SAMPLES, dtype=np.float32)
        while self.running and self.state == "in_call":
            peer = self.peer
            if peer is None:
                return
            block = self._mic_queue.popleft() if self._mic_queue else silence
            chunk = MediaChunk.from_audio(block, self._mic_seq, self.ctx.sim.now)
            self._mic_seq += 1
            yield from self._datagram.send(peer, chunk)
            yield self.ctx.sim.timeout(CHUNK_PERIOD)

    def on_chunk(self, source: Address, chunk: MediaChunk):
        """Jitter-buffered receive: play in order, skip holes only after
        the buffer depth is exceeded."""
        self._rx_buffer[chunk.seq] = chunk.audio()
        while self._rx_next in self._rx_buffer:
            self._speaker.append(self._rx_buffer.pop(self._rx_next))
            self._rx_next += 1
        if len(self._rx_buffer) > self.jitter_chunks:
            # A hole (lost datagram): skip ahead to the earliest buffered.
            earliest = min(self._rx_buffer)
            self._speaker.append(np.zeros(dsp.CHUNK_SAMPLES, dtype=np.float32))
            self._rx_next = earliest
        return None

    def heard(self) -> np.ndarray:
        if not self._speaker:
            return np.zeros(0, dtype=np.float32)
        return np.concatenate(self._speaker)
