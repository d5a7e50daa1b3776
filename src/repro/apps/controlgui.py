"""The ACE service-control GUI (Fig. 2), modeled headlessly.

The paper's GUI shows "available ACE services and devices … in a
hierarchical tree fashion based on their location within ACE"; selecting
one shows "the appropriate parameter controls".  This model builds that
tree from the Room Database + ASD and derives the parameter controls from
the daemon's own command semantics (``listCommands`` + argument specs), so
any new device type gets a GUI for free — the paper's modularity story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.lang import ACECmdLine
from repro.core.client import CallError, ServiceClient
from repro.net import Address
from repro.services.asd import ServiceRecord, asd_lookup


@dataclass
class ControlNode:
    """One row of the left-hand tree."""

    label: str
    kind: str                      # "room" | "service"
    record: Optional[ServiceRecord] = None
    children: List["ControlNode"] = field(default_factory=list)

    def walk(self, depth: int = 0):
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


@dataclass
class ParameterControl:
    """One right-hand control: an invocable command with argument slots."""

    command: str
    description: str = ""


class ACEControlGUI:
    """Headless Fig. 2: tree on the left, parameter controls on the right."""

    def __init__(self, client: ServiceClient, asd_address: Address,
                 roomdb_address: Address):
        self.client = client
        self.asd_address = asd_address
        self.roomdb_address = roomdb_address
        self.root = ControlNode("ACE", "room")
        self.selected: Optional[ServiceRecord] = None
        self.controls: List[ParameterControl] = []
        self._connection = None

    # -- tree construction -------------------------------------------------
    def refresh(self) -> Generator:
        """Rebuild the tree: rooms from the RoomDB, services from the ASD."""
        rooms_reply = yield from self.client.call(
            self.roomdb_address, ACECmdLine("listRooms")
        )
        records = yield from asd_lookup(self.client, self.asd_address)
        by_room: Dict[str, List[ServiceRecord]] = {}
        for record in records:
            by_room.setdefault(record.room, []).append(record)
        self.root = ControlNode("ACE", "room")
        room_names = list(rooms_reply.get("rooms", ()))
        for extra in sorted(by_room):
            if extra not in room_names:
                room_names.append(extra)
        for room in room_names:
            node = ControlNode(room, "room")
            for record in sorted(by_room.get(room, []), key=lambda r: r.name):
                node.children.append(ControlNode(record.name, "service", record))
            self.root.children.append(node)
        return self.root

    def tree_lines(self) -> List[str]:
        """The rendered left pane (for tests and terminal demos)."""
        return [("    " * depth) + node.label for depth, node in self.root.walk()]

    def find(self, service_name: str) -> Optional[ControlNode]:
        for _depth, node in self.root.walk():
            if node.kind == "service" and node.label == service_name:
                return node
        return None

    # -- selection / controls ------------------------------------------------
    def select(self, service_name: str) -> Generator:
        """Click a service: connect and derive its parameter controls."""
        node = self.find(service_name)
        if node is None or node.record is None:
            raise CallError(f"no service {service_name!r} in the tree")
        if self._connection is not None:
            self._connection.close()
        self._connection = yield from self.client.connect(node.record.address)
        reply = yield from self._connection.call(ACECmdLine("listCommands"))
        hidden = {"attach", "addNotification", "removeNotification", "ping",
                  "listCommands", "getInfo"}
        self.controls = [
            ParameterControl(command=name)
            for name in reply.get("commands", ())
            if name not in hidden
        ]
        self.selected = node.record
        return self.controls

    def invoke(self, command: ACECmdLine) -> Generator:
        """Press a control: run the command on the selected service."""
        if self._connection is None:
            raise CallError("select a service first")
        reply = yield from self._connection.call(command)
        return reply

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None
