"""Deterministic discrete-event simulation kernel.

This package is the substrate every other ``repro`` subsystem runs on.  It
provides a generator-based process model (in the style of SimPy, but minimal
and fully deterministic): simulation *processes* are Python generators that
``yield`` :class:`~repro.sim.kernel.Event` objects and are resumed by the
:class:`~repro.sim.kernel.Simulator` when those events fire.

Determinism rules
-----------------
* Ties in the event heap are broken by a monotonically increasing sequence
  number, so two runs with the same seed replay identically.
* Wall-clock time is never consulted; ``Simulator.now`` is the only clock.
* All randomness must come from :class:`~repro.sim.rng.RngRegistry` streams.
"""

from repro.sim.kernel import (
    AllOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    URGENT,
    NORMAL,
    LOW,
)
from repro.sim.queues import QueueClosed, Store
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry
from repro.sim.trace import (
    MergedTrace,
    MergedTraceRecord,
    TraceRecord,
    TraceRecorder,
    canonical_trace_hash,
    merge_traces,
)

__all__ = [
    "AllOf",
    "Event",
    "Interrupt",
    "LOW",
    "MergedTrace",
    "MergedTraceRecord",
    "NORMAL",
    "Process",
    "QueueClosed",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "TraceRecord",
    "TraceRecorder",
    "URGENT",
    "canonical_trace_hash",
    "merge_traces",
]
