"""Measurement helpers shared by benchmarks and experiments."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


def cores_available() -> int:
    """Cores this process may actually run on.

    Benchmarks report this next to CPU-based speedups so the reader can
    judge how much true parallelism the runner had.  ``os.cpu_count()``
    over-reports on affinity-restricted CI runners (it counts the
    machine, not the cgroup/affinity mask), so prefer the scheduler's
    answer where the platform has one.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class Summary:
    """Standard latency/throughput digest."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    def row(self, scale: float = 1e3, unit: str = "ms") -> str:
        return (
            f"n={self.count:<6d} mean={self.mean * scale:9.3f}{unit} "
            f"p50={self.p50 * scale:9.3f}{unit} p95={self.p95 * scale:9.3f}{unit} "
            f"p99={self.p99 * scale:9.3f}{unit} max={self.maximum * scale:9.3f}{unit}"
        )


def summarize(samples: Iterable[float]) -> Summary:
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return Summary(
        count=int(data.size),
        mean=float(data.mean()),
        p50=float(np.percentile(data, 50)),
        p95=float(np.percentile(data, 95)),
        p99=float(np.percentile(data, 99)),
        minimum=float(data.min()),
        maximum=float(data.max()),
    )


class LatencyRecorder:
    """Collects (start, stop) spans inside a simulation run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def record(self, elapsed: float) -> None:
        self.samples.append(float(elapsed))

    def summary(self) -> Summary:
        return summarize(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class RpcStats:
    """Counters for the resilient RPC layer (deadlines/retries/breakers).

    One instance lives on every :class:`~repro.core.policy.ResilienceRegistry`
    so an experiment can snapshot how much shedding and retrying the client
    layer did during a fault schedule.
    """

    calls: int = 0
    successes: int = 0
    failures: int = 0
    retries: int = 0
    deadline_expired: int = 0
    breaker_rejected: int = 0
    breaker_trips: int = 0
    breaker_resets: int = 0
    lookup_fallbacks: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "calls": self.calls,
            "successes": self.successes,
            "failures": self.failures,
            "retries": self.retries,
            "deadline_expired": self.deadline_expired,
            "breaker_rejected": self.breaker_rejected,
            "breaker_trips": self.breaker_trips,
            "breaker_resets": self.breaker_resets,
            "lookup_fallbacks": self.lookup_fallbacks,
        }


class AvailabilityRecorder:
    """Time-bucketed success/failure counts for availability timelines.

    ``record(t, ok)`` files one completed request into the bucket containing
    ``t``; ``series()`` yields ``(bucket_start, availability, count)`` rows,
    which is what the chaos experiment plots and asserts recovery shape on.
    """

    def __init__(self, bucket: float = 1.0):
        if bucket <= 0:
            raise ValueError(f"bucket must be positive, got {bucket}")
        self.bucket = float(bucket)
        self._ok: Dict[int, int] = {}
        self._total: Dict[int, int] = {}

    def record(self, t: float, ok: bool) -> None:
        idx = int(t // self.bucket)
        self._total[idx] = self._total.get(idx, 0) + 1
        if ok:
            self._ok[idx] = self._ok.get(idx, 0) + 1

    def series(self) -> List[Tuple[float, float, int]]:
        rows = []
        for idx in sorted(self._total):
            total = self._total[idx]
            rows.append((idx * self.bucket, self._ok.get(idx, 0) / total, total))
        return rows

    def availability_between(self, t0: float, t1: float) -> float:
        """Success fraction over [t0, t1); 1.0 when no requests completed."""
        ok = total = 0
        for idx, n in self._total.items():
            start = idx * self.bucket
            if t0 <= start < t1:
                total += n
                ok += self._ok.get(idx, 0)
        return ok / total if total else 1.0

    def delivered_between(self, t0: float, t1: float) -> int:
        """Successful requests completed in [t0, t1)."""
        return sum(
            n for idx, n in self._ok.items() if t0 <= idx * self.bucket < t1
        )


class ResultTable:
    """Plain fixed-width table printer for benchmark harnesses.

    Every experiment prints one of these; EXPERIMENTS.md quotes the rows.
    """

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append([_fmt(v) for v in values])

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows)) if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)
