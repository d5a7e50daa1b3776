"""Simulated network substrate for ACE.

The paper deploys ACE on a LAN of Unix workstations.  Here the network is a
deterministic simulation: :class:`~repro.net.host.Host` objects (with a CPU
speed in *bogomips*, as the HRM reports in §4.1) attached to a
:class:`~repro.net.network.Network` that delivers stream and datagram
messages with configurable latency, bandwidth, jitter, loss, partitions,
and host crashes.  Latency is segment-aware so the locality experiment
(E16) can count backbone traffic.

Secure channels (§3.1's SSL) live in :mod:`repro.net.secure`.
"""

from repro.net.address import Address, WellKnownPorts
from repro.net.host import Host, HostDownError
from repro.net.network import Network, NetworkError
from repro.net.sockets import (
    Connection,
    ConnectionClosed,
    ConnectionRefused,
    DatagramSocket,
    ListenerSocket,
)
from repro.net.secure import HandshakeError, SecureChannel

__all__ = [
    "Address",
    "Connection",
    "ConnectionClosed",
    "ConnectionRefused",
    "DatagramSocket",
    "HandshakeError",
    "Host",
    "HostDownError",
    "ListenerSocket",
    "Network",
    "NetworkError",
    "SecureChannel",
    "WellKnownPorts",
]
