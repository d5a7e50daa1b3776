"""Population-scale workload generator (E29).

Scales the E18 "hundreds of users" session mix to tens of thousands by
separating *who arrives when* from *what a session does*:

* :func:`generate_arrivals` draws an arrival schedule from a single root
  RNG stream (``population.arrivals``) via thinning against a rate curve
  — homogeneous Poisson, two-state MMPP, or a diurnal sinusoid — with an
  optional flash crowd (the E28 shape: a hard rate multiplier plus
  frantic think times inside the window).
* each arrival becomes a per-user session FSM on its home region's
  client host, looking services up in the regional directory, listing
  users in the regional AUD, and occasionally *roaming* to another
  region (cross-shard traffic in a sharded run).  A session holds one
  pooled connection per daemon it talks to for as long as it lives: it
  dials a directory the first time it needs it, not once per command.

Sharding contract: the schedule is computed identically in every shard
from the same root stream, and each shard spawns only the sessions whose
home client host it owns.  Every random draw a session makes comes from
its own ``population.user.<uid>`` stream, so draw sequences are
shard-count invariant (regression-tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Generator, List, Optional, Tuple

from repro.lang import ACECmdLine
from repro.core.client import CallError, ServiceClient
from repro.metrics import LatencyRecorder
from repro.obs.registry import Histogram

_MASK64 = (1 << 64) - 1

# One op is these two commands.  Command lines are immutable and memoise
# their wire text, so every session shares the same two objects.
_LOOKUP = ACECmdLine("lookup", cls="HRM")
_LIST_USERS = ACECmdLine("listUsers")


class CompactUserRng:
    """A per-session generator costing tens of bytes, not kilobytes.

    ``random.Random`` carries a ~2.5 KB Mersenne state; one per user is
    a quarter gigabyte at 100k users before a single event runs.  This
    xorshift64* generator holds one 64-bit word and implements exactly
    the draws a session FSM makes.  Seeded through
    :meth:`~repro.sim.rng.RngRegistry.derive_seed`, so sequences stay
    deterministic in ``(seed, stream-name)`` — just from a different
    (documented) generator family than the standard streams, which is
    why it is opt-in per profile (``compact_sessions``) rather than a
    global swap that would shift every pinned trace hash.
    """

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        self._s = (seed ^ 0x9E3779B97F4A7C15) & _MASK64 or 0x9E3779B97F4A7C15

    def random(self) -> float:
        """Uniform in [0, 1) with 53 random bits (xorshift64*)."""
        s = self._s
        s ^= s >> 12
        s ^= (s << 25) & _MASK64
        s ^= s >> 27
        self._s = s
        return (((s * 2685821657736338717) & _MASK64) >> 11) * (2.0 ** -53)

    def expovariate(self, lambd: float) -> float:
        return -math.log(1.0 - self.random()) / lambd

    def randrange(self, n: int) -> int:
        value = int(self.random() * n)
        return value if value < n else n - 1


class HistogramRecorder:
    """Duck-types the slice of :class:`~repro.metrics.LatencyRecorder`
    the population workload uses, but folds observations into a
    fixed-bucket digest — bounded memory regardless of op count (the
    100k rung records hundreds of thousands of latencies)."""

    __slots__ = ("hist",)

    def __init__(self) -> None:
        self.hist = Histogram()

    def record(self, elapsed: float) -> None:
        self.hist.observe(float(elapsed))

    @property
    def samples(self) -> list:
        return []

    def snapshot(self) -> dict:
        return self.hist.snapshot()

    def __len__(self) -> int:
        return self.hist.count


@dataclass(frozen=True)
class PopulationProfile:
    """Everything that defines a population run.  Picklable on purpose."""

    n_users: int
    duration: float
    #: arrival process: "poisson", "mmpp", or "diurnal"
    process: str = "poisson"
    #: arrivals land inside [0, arrival_window); None = duration / 2
    arrival_window: Optional[float] = None
    # -- MMPP (two-state) ------------------------------------------------
    mmpp_low: float = 0.4        # relative rate in the quiet state
    mmpp_high: float = 2.5       # relative rate in the bursty state
    mmpp_mean_low: float = 8.0   # mean seconds spent quiet
    mmpp_mean_high: float = 2.0  # mean seconds spent bursty
    # -- diurnal sinusoid ------------------------------------------------
    diurnal_amplitude: float = 0.8
    diurnal_period: Optional[float] = None  # None = arrival window
    # -- flash crowd (E28 shape) ----------------------------------------
    flash_at: Optional[float] = None
    flash_duration: float = 0.0
    flash_multiplier: float = 7.0
    flash_think_divisor: float = 10.0
    # -- session behaviour ----------------------------------------------
    think_time: float = 1.0
    roam_fraction: float = 0.1
    # -- population-scale memory trim (E30, the 100k rung) ---------------
    #: compact per-user state: :class:`CompactUserRng` instead of a
    #: cached ``random.Random`` per user, and a :class:`HistogramRecorder`
    #: latency digest instead of raw samples.  Changes draw sequences, so
    #: it is opt-in — default profiles keep the standard streams and the
    #: pinned E29/E30 trace hash.
    compact_sessions: bool = False

    def window(self) -> float:
        return self.arrival_window if self.arrival_window is not None \
            else self.duration / 2.0

    def in_flash(self, t: float) -> bool:
        """Is workload-relative time ``t`` inside the flash window?"""
        return (self.flash_at is not None
                and self.flash_at <= t < self.flash_at + self.flash_duration)


@dataclass(slots=True)
class PopulationState:
    """Live bookkeeping for one shard's slice of the population.

    Slotted: one instance exists per shard, but sessions touch it on
    every op, and ``__slots__`` keeps the attribute access on the 100k
    hot path dict-free (and documents the full field set).
    """

    profile: PopulationProfile
    t0: float                     # sim time the workload started
    end_at: float
    schedule_len: int
    ops: LatencyRecorder = field(default_factory=LatencyRecorder)
    sessions_spawned: int = 0
    sessions_started: int = 0
    sessions_finished: int = 0
    errors: int = 0
    roams: int = 0


def _mmpp_trajectory(rng, profile: PopulationProfile,
                     window: float) -> List[Tuple[float, float]]:
    """[(start_time, relative_rate), ...] covering [0, window]."""
    segments: List[Tuple[float, float]] = []
    t, high = 0.0, False
    while t < window:
        rate = profile.mmpp_high if high else profile.mmpp_low
        segments.append((t, rate))
        hold = rng.expovariate(
            1.0 / (profile.mmpp_mean_high if high else profile.mmpp_mean_low)
        )
        t += hold
        high = not high
    return segments


def generate_arrivals(rng_registry,
                      profile: PopulationProfile) -> List[Tuple[float, int]]:
    """Draw the arrival schedule ``[(t, uid), ...]`` for a profile.

    Deterministic in ``(seed, profile)``: every draw comes from the
    ``population.arrivals`` stream in a fixed order, so all shards of a
    sharded run compute the identical schedule.  Times are relative to
    the workload start.
    """
    rng = rng_registry.py("population.arrivals")
    window = profile.window()
    if window <= 0 or profile.n_users <= 0:
        return []

    if profile.process == "mmpp":
        segments = _mmpp_trajectory(rng, profile, window)

        def shape(t: float) -> float:
            rate = segments[0][1]
            for start, seg_rate in segments:
                if start > t:
                    break
                rate = seg_rate
            return rate
    elif profile.process == "diurnal":
        period = profile.diurnal_period or window

        def shape(t: float) -> float:
            phase = 2.0 * math.pi * (t / period - 0.25)
            return max(0.0, 1.0 + profile.diurnal_amplitude * math.sin(phase))
    elif profile.process == "poisson":
        def shape(t: float) -> float:
            return 1.0
    else:
        raise ValueError(f"unknown arrival process {profile.process!r}")

    def intensity(t: float) -> float:
        value = shape(t)
        if profile.in_flash(t):
            value *= profile.flash_multiplier
        return value

    # Normalize so the expected arrival count over the window is n_users,
    # then thin against the peak.  The grid is deterministic; flash edges
    # are included so the peak is never underestimated.
    grid = [window * i / 1024.0 for i in range(1025)]
    if profile.flash_at is not None:
        grid.extend([profile.flash_at,
                     min(window, profile.flash_at + profile.flash_duration / 2)])
    values = [intensity(t) for t in grid]
    mean_shape = sum(values) / len(values)
    peak = max(values)
    if mean_shape <= 0 or peak <= 0:
        return []
    lam0 = profile.n_users / (window * mean_shape)
    lam_max = lam0 * peak

    schedule: List[Tuple[float, int]] = []
    t, uid = 0.0, 0
    while uid < profile.n_users:
        t += rng.expovariate(lam_max)
        if t >= window:
            break
        if rng.random() * lam_max <= lam0 * intensity(t):
            schedule.append((t, uid))
            uid += 1
    return schedule


def _home_pattern(n_regions: int) -> List[int]:
    """User -> home-region assignment cycle.

    Region 0 is the machine room: it hosts the central services and half
    the desks of a satellite building, so it gets one slot in the cycle
    where every other region gets two.  (Also what keeps a sharded run
    balanced — the central shard trades user load for service load.)
    """
    if n_regions == 1:
        return [0]
    return [0] + 2 * list(range(1, n_regions))


def home_region(uid: int, n_regions: int) -> int:
    """Deterministic home region for a user id (shard-count invariant)."""
    pattern = _home_pattern(n_regions)
    return pattern[uid % len(pattern)]


def _session(env, state: PopulationState, uid: int, region) -> Generator:
    """One user's closed loop: lookup + listUsers, think, repeat.

    Commands ride the client's connection pool, so the session keeps its
    channels (home directory, AUD, and any directory it has roamed to)
    across ops; a channel that dies costs one errored op and the back-off,
    then the next op dials afresh.
    """
    sim = env.sim
    profile = state.profile
    end_at = state.end_at
    regions = env.campus_regions
    if profile.compact_sessions:
        # transient + tiny: nothing is cached registry-side, and the
        # state is one machine word instead of a Mersenne table
        rng = CompactUserRng(env.rng.derive_seed(f"population.user.{uid}"))
    else:
        rng = env.rng.py(f"population.user.{uid}")
    host = env.net.host(region.client_host)
    client = ServiceClient(env.ctx, host, principal=f"pop-{uid}")
    pool = client.pool
    aud = region.aud
    state.sessions_started += 1
    while sim.now < end_at:
        asd = region.asd
        if len(regions) > 1 and rng.random() < profile.roam_fraction:
            target = regions[rng.randrange(len(regions))]
            if target.index != region.index:
                asd = target.asd
                state.roams += 1
        t0 = sim.now
        try:
            yield from pool.call(asd, _LOOKUP)
            yield from pool.call(aud, _LIST_USERS)
        except CallError:
            # CallError includes TransportError: a held channel died
            state.errors += 1
            yield sim.timeout(0.5)
            continue
        state.ops.record(sim.now - t0)
        think = profile.think_time
        if profile.in_flash(sim.now - state.t0):
            think /= profile.flash_think_divisor
        yield sim.timeout(rng.expovariate(1.0 / think) if think > 0 else 0)
    # hang up, so the daemons' per-connection command threads end too
    client.close_channels()
    state.sessions_finished += 1


def start_population(env, shard, *, profile: PopulationProfile) -> int:
    """Spawn this shard's slice of the population; returns sessions spawned.

    Usable directly on a plain environment (``shard=None`` spawns every
    session) or as a :meth:`ShardedSimulator.spawn` function.  Attaches a
    :class:`PopulationState` as ``env.population`` for later collection.
    The caller is responsible for running the simulation past
    ``profile.duration``.
    """
    regions = getattr(env, "campus_regions", None)
    if not regions:
        raise ValueError("environment has no campus_regions "
                         "(build it with repro.env.build_campus)")
    schedule = generate_arrivals(env.rng, profile)
    t0 = env.sim.now
    state = PopulationState(
        profile=profile, t0=t0, end_at=t0 + profile.duration,
        schedule_len=len(schedule),
        ops=(HistogramRecorder() if profile.compact_sessions
             else LatencyRecorder()),
    )
    env.population = state
    owned = []
    for t, uid in schedule:
        region = regions[home_region(uid, len(regions))]
        if shard is not None and not shard.owns(region.client_host):
            continue
        owned.append((t, uid, region))
    state.sessions_spawned = len(owned)
    if owned:  # a shard that owns no region schedules nothing
        env.sim.process(_session_pump(env, state, owned, t0), name="pop-pump")
    return state.sessions_spawned


def _session_pump(env, state: PopulationState, arrivals, t0: float) -> Generator:
    """Spawn sessions at their arrival times.

    Pre-creating 100k generators would park 100k frames and heap entries
    in the kernel before the first user even arrives; the pump walks the
    (time-sorted) arrival list and materializes each session only when
    its start time comes due.
    """
    sim = env.sim
    for t, uid, region in arrivals:
        start_at = t0 + t
        if start_at > sim.now:
            yield sim.timeout(start_at - sim.now)
        sim.process(_session(env, state, uid, region), name=f"pop-{uid}")


def collect_population(env, shard=None) -> dict:
    """Gather one shard's population results as a picklable dict.

    Compact profiles carry no raw samples; their latency digest comes
    back under ``latency`` instead (fixed-bucket percentiles).
    """
    state = getattr(env, "population", None)
    if state is None:
        return {"ops": 0, "sessions_spawned": 0, "sessions_started": 0,
                "sessions_finished": 0, "errors": 0, "roams": 0,
                "schedule_len": 0, "samples": []}
    out = {
        "ops": len(state.ops),
        "sessions_spawned": state.sessions_spawned,
        "sessions_started": state.sessions_started,
        "sessions_finished": state.sessions_finished,
        "errors": state.errors,
        "roams": state.roams,
        "schedule_len": state.schedule_len,
        "samples": list(state.ops.samples),
    }
    if isinstance(state.ops, HistogramRecorder):
        out["latency"] = state.ops.snapshot()
    return out
