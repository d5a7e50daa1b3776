"""Centralized-gateway baseline (experiment E16, §8.3).

WebSphere-style deployment: every device command from every client routes
through one central server (possibly across the backbone), which forwards
to the device and relays the reply.  ACE's counter-argument (§8.1) is that
distributing daemons "not only reduces network traffic to local devices
... but also makes response times to these local services much more
efficient"; E16 measures exactly that: per-command latency and backbone
bytes, centralized vs direct.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics, parse_command
from repro.net import Address
from repro.core.client import CallError
from repro.core.daemon import ACEDaemon, Request, ServiceError


class CentralGatewayDaemon(ACEDaemon):
    """The single integration point all device traffic flows through."""

    service_type = "CentralGateway"

    def __init__(self, ctx, name, host, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        #: device name -> address (the gateway's own registry, mirroring a
        #: centralized deployment descriptor)
        self.devices: Dict[str, Address] = {}
        self.forwarded = 0

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define(
            "registerDevice",
            ArgSpec("device", ArgType.STRING),
            ArgSpec("host", ArgType.STRING),
            ArgSpec("port", ArgType.INTEGER),
        )
        sem.define(
            "forward",
            ArgSpec("device", ArgType.STRING),
            ArgSpec("command", ArgType.STRING),
            description="relay a command to a device and return its reply",
        )

    def cmd_registerDevice(self, request: Request) -> dict:
        cmd = request.command
        self.devices[cmd.str("device")] = Address(cmd.str("host"), cmd.int("port"))
        return {"devices": len(self.devices)}

    def cmd_forward(self, request: Request) -> Generator:
        cmd = request.command
        device = cmd.str("device")
        target = self.devices.get(device)
        if target is None:
            raise ServiceError(f"unknown device {device!r}")
        try:
            inner = parse_command(cmd.str("command"))
        except Exception as exc:
            raise ServiceError(f"unparseable inner command: {exc}")
        client = self._service_client()
        try:
            reply = yield from client.call(target, inner, attach=True)
        except CallError as exc:
            raise ServiceError(f"device {device!r} unreachable: {exc}")
        self.forwarded += 1
        # Relay the device's reply fields (prefixed to avoid clashing with
        # the gateway's own reply envelope).
        out = {"device": device}
        for key, value in reply:
            if key not in ("cmd",):
                out[f"r_{key}"] = value
        return out
