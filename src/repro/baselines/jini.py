"""Jini-style discovery baseline (experiment E17, §8.4).

The Jini flow differs from the ASD's in two measurable ways:

1. the lookup service is found by **multicast** rather than a well-known
   address (extra round trip + multicast traffic);
2. lookups return a serialized **service proxy** (downloaded code, often
   kilobytes) instead of the ASD's ~60-byte ``host|port`` record; the
   client then invokes through the proxy via RMI.

Both effects are modeled with genuine payload sizes so the discovery
byte/latency comparison is meaningful.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.net import Address
from repro.net.address import WellKnownPorts
from repro.net.host import Host
from repro.net.network import Network

#: Serialized Jini proxies carry stub classes; a few KB is typical.
PROXY_CODE_BYTES = 4096


@dataclass
class JiniServiceProxy:
    """What a Jini lookup hands back: a serialized, downloadable stub."""

    interface: str
    name: str
    address: Address
    attributes: Dict[str, str]
    stub_code: bytes = b""

    def wire_size(self) -> int:
        return len(pickle.dumps(
            (self.interface, self.name, str(self.address), self.attributes)
        )) + len(self.stub_code)


@dataclass
class _Registration:
    proxy: JiniServiceProxy
    lease_expiry: float


class JiniLookupService:
    """The Jini lookup service: multicast-discoverable registrar."""

    def __init__(self, net: Network, host: Host, port: int = 4160,
                 lease_duration: float = 30.0):
        self.net = net
        self.host = host
        self.port = port
        self.lease_duration = lease_duration
        self._registry: Dict[str, _Registration] = {}
        self._dgram = None
        self.lookups_served = 0
        self.registrations = 0

    @property
    def address(self) -> Address:
        return Address(self.host.name, self.port)

    def start(self) -> None:
        self._dgram = self.net.bind_datagram(self.host, self.port)
        self._dgram.join(WellKnownPorts.JINI_MULTICAST)
        self.net.sim.process(self._serve_loop(), name="jini-lookup")

    def stop(self) -> None:
        if self._dgram is not None:
            self._dgram.close()

    def _expire(self) -> None:
        now = self.net.sim.now
        for name in [n for n, reg in self._registry.items() if reg.lease_expiry <= now]:
            del self._registry[name]

    def _serve_loop(self) -> Generator:
        from repro.net import ConnectionClosed

        while True:
            try:
                source, message = yield from self._dgram.recv()
            except ConnectionClosed:
                return
            kind = message[0]
            if kind == "discover":
                # Unicast announcement back to the requester.
                yield from self._dgram.send(source, ("announce", self.address))
            elif kind == "register":
                _, proxy = message
                self._registry[proxy.name] = _Registration(
                    proxy, self.net.sim.now + self.lease_duration
                )
                self.registrations += 1
                yield from self._dgram.send(
                    source, ("lease", proxy.name, self.lease_duration)
                )
            elif kind == "renew":
                _, name = message
                reg = self._registry.get(name)
                if reg is not None and reg.lease_expiry > self.net.sim.now:
                    reg.lease_expiry = self.net.sim.now + self.lease_duration
                    yield from self._dgram.send(source, ("lease", name, self.lease_duration))
                else:
                    yield from self._dgram.send(source, ("no-lease", name))
            elif kind == "lookup":
                _, interface = message
                self._expire()
                self.lookups_served += 1
                matches = [
                    reg.proxy for reg in self._registry.values()
                    if reg.proxy.interface == interface
                ]
                matches.sort(key=lambda p: p.name)
                yield from self._dgram.send(source, ("proxies", tuple(matches)))


class JiniParticipant:
    """Helper for services/clients speaking the lookup protocol."""

    def __init__(self, net: Network, host: Host):
        self.net = net
        self.host = host
        self.sock = net.bind_datagram(host)
        self.lookup_address: Optional[Address] = None

    def discover(self, timeout: float = 2.0) -> Generator:
        yield from self.sock.send_multicast(WellKnownPorts.JINI_MULTICAST, ("discover",))
        deadline = self.net.sim.now + timeout
        while self.net.sim.now < deadline:
            found, item = self.sock.try_recv()
            if found and item[1][0] == "announce":
                self.lookup_address = item[1][1]
                return self.lookup_address
            yield self.net.sim.timeout(0.005)
        raise TimeoutError("no Jini lookup service answered")

    def _request(self, message: Tuple, want: Tuple[str, ...], timeout: float = 2.0) -> Generator:
        assert self.lookup_address is not None, "discover() first"
        yield from self.sock.send(self.lookup_address, message)
        deadline = self.net.sim.now + timeout
        while self.net.sim.now < deadline:
            found, item = self.sock.try_recv()
            if found and item[1][0] in want:
                return item[1]
            yield self.net.sim.timeout(0.005)
        raise TimeoutError(f"lookup service did not answer {message[0]!r}")

    def join(self, proxy: JiniServiceProxy) -> Generator:
        """Register a service (Jini's 'join protocol')."""
        if proxy.stub_code == b"":
            proxy.stub_code = bytes(PROXY_CODE_BYTES)
        reply = yield from self._request(("register", proxy), ("lease",))
        return reply[2]  # lease duration

    def renew(self, name: str) -> Generator:
        """Returns the new lease duration, or None when the lease lapsed."""
        reply = yield from self._request(("renew", name), ("lease", "no-lease"))
        return reply[2] if reply[0] == "lease" else None

    def lookup(self, interface: str) -> Generator:
        reply = yield from self._request(("lookup", interface), ("proxies",))
        return list(reply[1])

    def close(self) -> None:
        self.sock.close()
