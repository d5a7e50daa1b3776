"""RMI-style remote method invocation baseline (experiment E1).

Java RMI ships serialized call envelopes: a method descriptor (interface
name, method signature, operation hash), serialized arguments with class
metadata, plus the transport's own header.  We emulate that with pickled
envelopes carrying the same descriptive burden, so the byte and CPU
comparison against the ~dozens-of-bytes ACE command strings is fair at the
protocol level (both run over the identical simulated transport).

The paper's claim (§2.2, §8.1): the ACE command language "allows for a
very lightweight form of communication ... much more lightweight than
utilizing something like RMI", whose "bytecode transmissions ... may be
large".
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional, Tuple

from repro.net import Address, Connection
from repro.net.host import Host
from repro.net.network import Network

#: JRMP-ish fixed framing overhead per message (stream magic, protocol
#: byte, UID, operation number...).
TRANSPORT_HEADER = 22


@dataclass
class RMIEnvelope:
    """A serialized remote call or reply."""

    payload: bytes

    def wire_size(self) -> int:
        return len(self.payload) + TRANSPORT_HEADER

    @classmethod
    def call(cls, interface: str, method: str, signature: str,
             args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> "RMIEnvelope":
        envelope = {
            "type": "call",
            "interface": interface,
            "method": method,
            "signature": signature,
            # Java serialization tags every object with its class; pickle
            # does the equivalent via its own opcodes.
            "args": args,
            "kwargs": kwargs,
            "operation_hash": hash((interface, method, signature)) & 0xFFFFFFFF,
        }
        return cls(pickle.dumps(envelope, protocol=2))

    @classmethod
    def reply(cls, value: Any, exception: Optional[str] = None) -> "RMIEnvelope":
        return cls(pickle.dumps({"type": "return", "value": value,
                                 "exception": exception}, protocol=2))

    def decode(self) -> Dict[str, Any]:
        return pickle.loads(self.payload)


class RMIServer:
    """A remote object: dispatches envelope calls to registered methods."""

    def __init__(self, net: Network, host: Host, port: int, interface: str):
        self.net = net
        self.host = host
        self.port = port
        self.interface = interface
        self._methods: Dict[str, Any] = {}
        self._listener = None
        self.calls_served = 0

    @property
    def address(self) -> Address:
        return Address(self.host.name, self.port)

    def register(self, name: str, func) -> None:
        self._methods[name] = func

    def start(self) -> None:
        self._listener = self.net.listen(self.host, self.port)
        self.net.sim.process(self._accept_loop(), name=f"rmi:{self.interface}")

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.close()

    def _accept_loop(self) -> Generator:
        from repro.net import ConnectionClosed

        while True:
            try:
                conn = yield from self._listener.accept()
            except ConnectionClosed:
                return
            self.net.sim.process(self._serve(conn), name="rmi-conn")

    def _serve(self, conn: Connection) -> Generator:
        from repro.net import ConnectionClosed

        while True:
            try:
                envelope = yield from conn.recv()
            except ConnectionClosed:
                return
            message = envelope.decode()
            # Deserialization/dispatch CPU (comparable accounting to the
            # ACE daemon's dispatch_work, plus per-byte unpickling cost).
            yield from self.host.execute(2.0 + 0.004 * len(envelope.payload))
            method = self._methods.get(message["method"])
            if method is None:
                reply = RMIEnvelope.reply(None, exception="NoSuchMethodException")
            else:
                try:
                    value = method(*message["args"], **message["kwargs"])
                    reply = RMIEnvelope.reply(value)
                except Exception as exc:  # noqa: BLE001 - remote fault path
                    reply = RMIEnvelope.reply(None, exception=str(exc))
            self.calls_served += 1
            try:
                yield from conn.send(reply)
            except ConnectionClosed:
                return


class RMIClient:
    """Client-side stub: connect once, invoke many times."""

    def __init__(self, net: Network, host: Host, interface: str):
        self.net = net
        self.host = host
        self.interface = interface
        self._conn: Optional[Connection] = None

    def connect(self, address: Address) -> Generator:
        self._conn = yield from self.net.connect(self.host, address)

    def invoke(self, method: str, *args: Any, signature: str = "()", **kwargs: Any) -> Generator:
        if self._conn is None:
            raise RuntimeError("not connected")
        call = RMIEnvelope.call(self.interface, method, signature, args, kwargs)
        yield from self.host.execute(1.0 + 0.004 * len(call.payload))  # marshalling
        yield from self._conn.send(call)
        reply = yield from self._conn.recv()
        message = reply.decode()
        if message.get("exception"):
            raise RuntimeError(message["exception"])
        return message["value"]

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
