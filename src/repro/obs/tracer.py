"""Span recording and critical-path analysis.

The :class:`Tracer` is the per-environment home of causal spans: client
calls, server command executions, queue waits, replication pushes,
notification deliveries.  A live span (from ``start_*`` to ``finish``) is
a cheap mutable :class:`Span`; ids are deterministic counters (``t<n>`` /
``s<n>``) so span trees are identical across runs with the same seed —
scenario tests assert hop ordering exactly.

``finish`` files a span into the tracer's :class:`SpanLog`, which keeps
finished spans as columns (one list per field, annotations flat), not as
objects: a traced run finishes three spans per op, and as objects they
were nearly all the objects the cyclic collector had to walk, a quarter
of a traced run's host time (EXPERIMENTS.md, "E22 follow-up").  Every
read of the log builds a fresh :class:`Span`.

Analysis lives here too: :class:`SpanTree` rebuilds the causal tree of one
trace and :func:`critical_path` walks the longest-pole chain to answer
"who ate the latency" for a Ch. 7 scenario run.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

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
    #: the ambient span this one displaced while current (never on the wire)
    outer: Optional["Span"] = field(default=None, repr=False, compare=False)

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


def _same_spans(a: Sequence, b: object) -> Any:
    if not isinstance(b, Sequence) or isinstance(b, (str, bytes)):
        return NotImplemented
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


class SpanLog(Sequence):
    """Finished spans, filed as columns.

    Each of a span's nine scalar fields has its own list; annotations are
    one flat key list and one flat value list, plus each span's end offset
    into them.  Filing a span appends strings, floats and the annotation
    values themselves, none of which adds an object the cyclic collector
    tracks, so a traced run's spans cost the collector nothing.

    Reads look like a list of spans: ``len``, indexing (negative too),
    iteration and ``==`` against any sequence.  Every read builds a fresh
    :class:`Span` with ``outer=None``, so ``is`` never holds between a
    read and the live span.  A slice is a lazy view over filing positions:
    it builds a span only when one is read, and reading a span the cap has
    since dropped raises :class:`IndexError`.

    The log holds what a span had when it was finished: annotating the
    live span afterwards does not reach it.  No caller does — the client
    and the daemon annotate before ``finish``.
    """

    __slots__ = (
        "trace_ids", "span_ids", "parent_ids", "names", "sources", "kinds",
        "starts", "ends", "statuses", "note_keys", "note_values", "note_ends",
        "dropped",
    )

    def __init__(self) -> None:
        self.trace_ids: List[str] = []
        self.span_ids: List[str] = []
        self.parent_ids: List[str] = []
        self.names: List[str] = []
        self.sources: List[str] = []
        self.kinds: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.statuses: List[str] = []
        self.note_keys: List[str] = []
        self.note_values: List[Any] = []
        #: one past each span's last annotation in ``note_keys``
        self.note_ends: List[int] = []
        #: spans dropped from the front by :meth:`drop_oldest`
        self.dropped = 0

    def drop_oldest(self, n: int) -> None:
        """Drop the ``n`` oldest spans from every column."""
        n = min(n, len(self.span_ids))
        if n <= 0:
            return
        for column in (self.trace_ids, self.span_ids, self.parent_ids,
                       self.names, self.sources, self.kinds, self.starts,
                       self.ends, self.statuses):
            del column[:n]
        cut = self.note_ends[n - 1]
        del self.note_keys[:cut], self.note_values[:cut]
        self.note_ends = [end - cut for end in self.note_ends[n:]]
        self.dropped += n

    def _span(self, i: int) -> Span:
        offsets = self.note_ends
        lo = offsets[i - 1] if i else 0
        hi = offsets[i]
        return Span(
            self.trace_ids[i], self.span_ids[i], self.parent_ids[i],
            self.names[i], self.sources[i], self.kinds[i], self.starts[i],
            self.ends[i], self.statuses[i],
            dict(zip(self.note_keys[lo:hi], self.note_values[lo:hi])),
        )

    def of_trace(self, trace_id: str) -> List[Span]:
        """One trace's spans, in filing order: a scan of the trace-id
        column that builds only the matches."""
        return [self._span(i) for i, t in enumerate(self.trace_ids) if t == trace_id]

    def __len__(self) -> int:
        return len(self.span_ids)

    def __getitem__(self, key):
        if isinstance(key, slice):
            first = self.dropped
            return _SpanView(self, range(first, first + len(self))[key])
        return self._span(range(len(self.span_ids))[key])

    def __iter__(self) -> Iterator[Span]:
        for i in range(len(self.span_ids)):
            yield self._span(i)

    __eq__ = _same_spans

    def __repr__(self) -> str:
        return f"<SpanLog: {len(self)} spans, {self.dropped} dropped>"


class _SpanView(Sequence):
    """A lazy slice of a :class:`SpanLog`: a range of filing positions
    (counted from the log's first span ever, dropped ones included)."""

    __slots__ = ("_log", "_seqs")

    def __init__(self, log: SpanLog, seqs: range):
        self._log = log
        self._seqs = seqs

    def _span(self, seq: int) -> Span:
        i = seq - self._log.dropped
        if i < 0:
            raise IndexError("span dropped by the log's cap")
        return self._log._span(i)

    def __len__(self) -> int:
        return len(self._seqs)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return _SpanView(self._log, self._seqs[key])
        return self._span(self._seqs[key])

    def __iter__(self) -> Iterator[Span]:
        for seq in self._seqs:
            yield self._span(seq)

    __eq__ = _same_spans

    def __repr__(self) -> str:
        return f"<SpanLog view: {len(self)} spans>"


ParentLike = Optional[object]  # Span | TraceContext | None


class Tracer:
    """Deterministic span factory + bounded finished-span store
    (:attr:`spans`, a :class:`SpanLog`).

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
        self.spans = SpanLog()

    @property
    def dropped(self) -> int:
        """Finished spans the ``max_spans`` cap has dropped."""
        return self.spans.dropped

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
        log = self.spans
        if len(log.span_ids) >= self.max_spans:
            # Keep the newest work: drop the oldest decile in one slice.
            log.drop_oldest(max(self.max_spans // 10, 1))
        # File the span as it is now, straight into each column: this runs
        # for every span, and a helper call or a loop over the fields here
        # costs more than the appends themselves.
        log.trace_ids.append(span.trace_id)
        log.span_ids.append(span.span_id)
        log.parent_ids.append(span.parent_id)
        log.names.append(span.name)
        log.sources.append(span.source)
        log.kinds.append(span.kind)
        log.starts.append(span.start)
        log.ends.append(span.end)
        log.statuses.append(status)
        notes = span.annotations
        if notes:
            log.note_keys.extend(notes)
            log.note_values.extend(notes.values())
        log.note_ends.append(len(log.note_keys))
        return span

    # -- queries -----------------------------------------------------------
    def spans_for(self, trace_id: str) -> List[Span]:
        """One trace's finished spans, in filing order (fresh objects)."""
        return self.spans.of_trace(trace_id)

    def tree(self, trace_id: str) -> "SpanTree":
        return SpanTree(self.spans_for(trace_id))


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
