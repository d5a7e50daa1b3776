"""A multi-region campus topology for population-scale runs (E29).

Four (by default) regions on distinct network segments:

* region 0 — the central machine room: the full infrastructure stack
  (``add_infrastructure`` on ``r0-infra``) including the authoritative
  ASD and AUD;
* regions 1..N-1 — satellite buildings: a regional
  :class:`~repro.services.asd.ServiceDirectoryDaemon` and a regional
  :class:`~repro.services.aud.UserDatabaseDaemon` on ``r<k>-infra``.
  Regional AUDs register (and keep renewing leases) with the *central*
  ASD, which is what gives a sharded run its organic cross-shard
  control-plane traffic.

Every region also gets one client host, ``r<k>-clients``, that the
population workload (:mod:`repro.workloads.population`) runs user
sessions from.

The module is shard-aware but shard-free by default: ``build_campus(None)``
yields an ordinary single-kernel environment, while the same function
used as a :class:`~repro.sim.parallel.ShardedSimulator` builder (with
:func:`campus_shard_map`) builds the identical topology in every shard.
Everything here is module-level and picklable on purpose.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.net.address import Address, WellKnownPorts
from repro.env.environment import (
    ACEEnvironment,
    _TIER_BOOTSTRAP,
    _TIER_DATABASE,
)
from repro.services.asd import ServiceDirectoryDaemon
from repro.services.aud import UserDatabaseDaemon


@dataclass(frozen=True)
class CampusRegion:
    """Addresses a workload needs to exercise one region."""

    index: int
    asd: Address        # regional directory (central ASD for region 0)
    aud: Address        # regional user database (central AUD for region 0)
    client_host: str    # host user sessions run from


def build_campus(
    shard=None,
    *,
    seed: int = 29,
    regions: int = 4,
    lease_duration: float = 15.0,
    trace: bool = True,
    client_monitors: bool = False,
) -> ACEEnvironment:
    """Build the campus; identical topology at every shard count.

    ``shard`` is a :class:`~repro.sim.parallel.ShardContext` (or ``None``
    for a plain single-kernel environment).  The region list is attached
    as ``env.campus_regions``.
    """
    if regions < 1:
        raise ValueError(f"need at least one region, got {regions}")
    env = ACEEnvironment(
        seed=seed, lease_duration=lease_duration, trace=trace, shard=shard
    )
    env.add_infrastructure(
        "r0-infra",
        room="machineroom",
        with_wss=False,
        with_idmon=False,
        srm_poll_interval=60.0,
    )
    region_infos: List[CampusRegion] = [
        CampusRegion(
            index=0,
            asd=Address("r0-infra", WellKnownPorts.ASD),
            aud=Address("r0-infra", WellKnownPorts.USER_DB),
            client_host="r0-clients",
        )
    ]
    env.add_workstation("r0-clients", segment="lan", monitors=client_monitors)
    for r in range(1, regions):
        segment = f"r{r}"
        infra = env.add_workstation(
            f"r{r}-infra", segment=segment, bogomips=1600.0, cores=2,
            monitors=False,
        )
        env.add_daemon(
            ServiceDirectoryDaemon(
                env.ctx, f"asd.r{r}", infra, port=WellKnownPorts.ASD,
            ),
            tier=_TIER_BOOTSTRAP,
        )
        env.add_daemon(
            UserDatabaseDaemon(
                env.ctx, f"aud.r{r}", infra, port=WellKnownPorts.USER_DB,
            ),
            tier=_TIER_DATABASE,
        )
        env.add_workstation(
            f"r{r}-clients", segment=segment, monitors=client_monitors
        )
        region_infos.append(
            CampusRegion(
                index=r,
                asd=Address(f"r{r}-infra", WellKnownPorts.ASD),
                aud=Address(f"r{r}-infra", WellKnownPorts.USER_DB),
                client_host=f"r{r}-clients",
            )
        )
    env.campus_regions = region_infos
    return env


def _campus_host_shard(host_name: str, n_regions: int, n_shards: int) -> int:
    """Region-contiguous placement: region ``r`` -> shard ``r*S // R``."""
    prefix = host_name.split("-", 1)[0]
    if not prefix.startswith("r"):
        raise ValueError(f"host {host_name!r} is not a campus host")
    region = int(prefix[1:])
    return region * n_shards // n_regions


def campus_shard_map(n_regions: int, n_shards: int) -> Callable[[str], int]:
    """A picklable host->shard map assigning whole regions to shards.

    With more shards than regions, the region-contiguous formula leaves
    some shards owning zero hosts.  That is a legal partition: an empty
    shard's lookahead row is all-``inf``, so it never receives a grant
    past the boot one.
    """
    return functools.partial(
        _campus_host_shard, n_regions=n_regions, n_shards=n_shards
    )


def campus_100k_profile(n_users: int = 100_000, duration: float = 6.0):
    """The 100k-user campus rung (E30): a memory-trimmed population.

    Turns on ``compact_sessions`` (xorshift per-user RNGs, histogram
    latency digest instead of raw samples) and stretches think time so
    the event rate stays within a timed-benchmark budget.  Compact sessions
    draw from a different generator family, so this profile is for
    capacity runs, not for trace-equivalence comparisons against the
    standard profiles.
    """
    from repro.workloads.population import PopulationProfile

    return PopulationProfile(
        n_users=n_users,
        duration=duration,
        process="mmpp",
        think_time=2.0,
        compact_sessions=True,
    )
