"""Span recording and critical-path analysis.

The :class:`Tracer` is the per-environment home of causal spans: client
calls, server command executions, queue waits, replication pushes,
notification deliveries.  Spans are cheap mutable records; ids are
deterministic counters (``t<n>`` / ``s<n>``) so span trees are identical
across runs with the same seed — scenario tests assert hop ordering
exactly.

Analysis lives here too: :class:`SpanTree` rebuilds the causal tree of one
trace and :func:`critical_path` walks the longest-pole chain to answer
"who ate the latency" for a Ch. 7 scenario run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.lang.wire import join_wire
from repro.obs.context import TraceContext

#: span kinds (who recorded it, from which side of the wire)
CLIENT = "client"
SERVER = "server"
INTERNAL = "internal"
PRODUCER = "producer"  # fire-and-forget work spawned off a request


@dataclass
class Span:
    """One timed operation inside a trace."""

    trace_id: str
    span_id: str
    parent_id: str
    name: str            # e.g. "call:lookup", "serve:setPosition"
    source: str          # daemon name or client principal
    kind: str
    start: float
    end: float = math.nan
    status: str = "ok"
    annotations: Dict[str, Any] = field(default_factory=dict)

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id, self.parent_id)

    @property
    def finished(self) -> bool:
        return not math.isnan(self.end)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.finished else 0.0

    def annotate(self, **kw: Any) -> "Span":
        self.annotations.update(kw)
        return self

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.annotations.items()))
        return (
            f"[{self.start:10.6f} +{self.duration * 1e3:8.3f}ms] "
            f"{self.name} @{self.source} ({self.kind}) {extras}".rstrip()
        )


def span_to_wire(span: Span) -> str:
    """One span as an escaped ``|`` row — the canonical text the
    determinism tests and the benchmark ledger hash a span stream with."""
    notes = ",".join(f"{k}={v}" for k, v in sorted(span.annotations.items()))
    return join_wire(
        (
            span.trace_id,
            span.span_id,
            span.parent_id,
            span.name,
            span.source,
            span.kind,
            f"{span.start:.6f}",
            f"{span.end:.6f}",
            span.status,
            notes,
        )
    )


ParentLike = Optional[object]  # Span | TraceContext | None


class Tracer:
    """Deterministic span factory + bounded finished-span store.

    ``sample_rate`` gates *root* spans only: an unsampled root returns
    ``None`` and every downstream ``start_span(parent=None)`` is a no-op,
    so the entire request costs two ``None`` checks.  Children always
    follow their parent's decision (contexts only propagate when sampled).
    """

    def __init__(
        self,
        clock: Callable[[], float],
        *,
        enabled: bool = True,
        sample_rate: float = 1.0,
        max_spans: int = 100_000,
        rng=None,
    ):
        self.clock = clock
        self.enabled = enabled
        self.sample_rate = sample_rate
        self.max_spans = max_spans
        self._rng = rng
        self._trace_seq = 0
        self._span_seq = 0
        self.spans: List[Span] = []
        self.dropped = 0

    # -- creation ----------------------------------------------------------
    def _next_span_id(self) -> str:
        self._span_seq += 1
        return f"s{self._span_seq}"

    def start_trace(self, name: str, source: str, **annotations: Any) -> Optional[Span]:
        """Begin a new root span (the whole end-to-end request), or return
        ``None`` when tracing is off or the sampler says no."""
        if not self.enabled:
            return None
        if self.sample_rate < 1.0:
            if self._rng is None or self._rng.random() >= self.sample_rate:
                return None
        self._trace_seq += 1
        span = Span(
            trace_id=f"t{self._trace_seq}",
            span_id=self._next_span_id(),
            parent_id="",
            name=name,
            source=source,
            kind=INTERNAL,
            start=self.clock(),
        )
        if annotations:
            span.annotations.update(annotations)
        return span

    def start_span(
        self,
        name: str,
        source: str,
        parent: ParentLike,
        kind: str = INTERNAL,
        **annotations: Any,
    ) -> Optional[Span]:
        """Begin a child span under ``parent`` (a Span or TraceContext);
        no-op when the parent is absent (unsampled or untraced)."""
        if parent is None or not self.enabled:
            return None
        if isinstance(parent, Span):
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif isinstance(parent, TraceContext):
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:  # pragma: no cover - defensive
            return None
        span = Span(
            trace_id=trace_id,
            span_id=self._next_span_id(),
            parent_id=parent_id,
            name=name,
            source=source,
            kind=kind,
            start=self.clock(),
        )
        if annotations:
            span.annotations.update(annotations)
        return span

    def finish(self, span: Optional[Span], status: str = "ok", **annotations: Any) -> Optional[Span]:
        """Stamp the end time and file the span; ``finish(None)`` is a no-op."""
        if span is None:
            return None
        span.end = self.clock()
        span.status = status
        if annotations:
            span.annotations.update(annotations)
        if len(self.spans) >= self.max_spans:
            # Keep the newest work: drop the oldest decile in one slice.
            cut = max(self.max_spans // 10, 1)
            del self.spans[:cut]
            self.dropped += cut
        self.spans.append(span)
        return span

    # -- queries -----------------------------------------------------------
    def spans_for(self, trace_id: str) -> List[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def tree(self, trace_id: str) -> "SpanTree":
        return SpanTree(self.spans_for(trace_id))

    def clear(self) -> None:
        self.spans.clear()
        self.dropped = 0


class SpanTree:
    """The causal tree of one trace, rebuilt from its finished spans."""

    def __init__(self, spans: Sequence[Span]):
        self.spans = sorted(spans, key=lambda s: (s.start, s.span_id))
        self._by_id: Dict[str, Span] = {s.span_id: s for s in self.spans}
        self._children: Dict[str, List[Span]] = {}
        self.roots: List[Span] = []
        for span in self.spans:
            if span.parent_id and span.parent_id in self._by_id:
                self._children.setdefault(span.parent_id, []).append(span)
            else:
                self.roots.append(span)

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def root(self) -> Optional[Span]:
        return self.roots[0] if self.roots else None

    def children(self, span: Span) -> List[Span]:
        return list(self._children.get(span.span_id, ()))

    def walk(self) -> List[Tuple[int, Span]]:
        """Preorder (depth, span) traversal — the scenario figures' 'step N'
        listing.  Deterministic: siblings ordered by start time."""
        out: List[Tuple[int, Span]] = []

        def visit(span: Span, depth: int) -> None:
            out.append((depth, span))
            for child in self._children.get(span.span_id, ()):
                visit(child, depth + 1)

        for root in self.roots:
            visit(root, 0)
        return out

    def hops(self) -> List[str]:
        """Span names in causal preorder — what scenario tests assert."""
        return [span.name for _, span in self.walk()]

    def depth(self) -> int:
        return max((d for d, _ in self.walk()), default=-1) + 1

    def render(self, scale: float = 1e3, unit: str = "ms") -> str:
        lines = []
        for depth, span in self.walk():
            pad = "  " * depth
            extras = " ".join(f"{k}={v}" for k, v in sorted(span.annotations.items()))
            lines.append(
                f"{pad}{span.name} @{span.source} "
                f"{span.duration * scale:.3f}{unit}"
                + (f" [{extras}]" if extras else "")
                + ("" if span.status == "ok" else f" !{span.status}")
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class CriticalHop:
    """One segment of the critical path: a span and its *self* time (the
    part of its duration not covered by its own critical child)."""

    span: Span
    self_time: float

    @property
    def share(self) -> float:
        total = self.span.duration
        return self.self_time / total if total > 0 else 0.0


def critical_path(tree: SpanTree) -> List[CriticalHop]:
    """The longest-pole chain from the root down: at each node follow the
    child that finished last (it gated the parent's completion), charging
    each hop with the time its critical child does not explain."""
    root = tree.root
    if root is None:
        return []
    chain: List[Span] = []
    node: Optional[Span] = root
    while node is not None:
        chain.append(node)
        kids = tree.children(node)
        node = max(kids, key=lambda s: (s.end, s.start)) if kids else None
    hops: List[CriticalHop] = []
    for i, span in enumerate(chain):
        child_time = chain[i + 1].duration if i + 1 < len(chain) else 0.0
        hops.append(CriticalHop(span, max(span.duration - child_time, 0.0)))
    return hops


def critical_path_rows(tree: SpanTree, scale: float = 1e3) -> List[Tuple[str, str, float, float, str]]:
    """(hop, source, total, self, annotations) rows for a ResultTable."""
    rows = []
    for hop in critical_path(tree):
        span = hop.span
        notes = " ".join(f"{k}={v}" for k, v in sorted(span.annotations.items()))
        if span.status != "ok":
            notes = f"status={span.status} {notes}".strip()
        rows.append(
            (span.name, span.source, span.duration * scale, hop.self_time * scale, notes)
        )
    return rows
