"""Service leases (§2.4).

The ASD grants every registration a lease; services must renew before
expiry or be purged ("this mechanism accounts for ... daemons that become
inactive due to malfunction").  :class:`LeaseTable` is the ASD-side
bookkeeping; the daemon-side renewal loop lives in the base daemon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Lease:
    """One granted lease."""

    holder: str
    duration: float
    expires_at: float
    renewals: int = 0

    def valid_at(self, now: float) -> bool:
        return now < self.expires_at


class LeaseTable:
    """Lease bookkeeping with expiry callbacks.

    The owner is expected to call :meth:`expire` periodically (or whenever
    it answers a query) with the current time; expired holders are removed
    and reported.  This "lazy sweep" keeps the table deterministic without
    needing a timer per lease.
    """

    def __init__(self, duration: float, on_expire: Optional[Callable[[str], None]] = None):
        if duration <= 0:
            raise ValueError(f"lease duration must be positive, got {duration}")
        self.duration = duration
        self.on_expire = on_expire
        self._leases: Dict[str, Lease] = {}

    def __len__(self) -> int:
        return len(self._leases)

    def __contains__(self, holder: str) -> bool:
        return holder in self._leases

    def grant(self, holder: str, now: float) -> Lease:
        """Grant (or re-grant) a lease starting at ``now``."""
        lease = Lease(holder, self.duration, now + self.duration)
        self._leases[holder] = lease
        return lease

    def grant_until(self, holder: str, expires_at: float, renewals: int = 0) -> Lease:
        """Install a lease with an explicit expiry — the replication path:
        a replica applying a synced registration must adopt the *grantor's*
        horizon, not restart the clock, or a crashed service would live
        ``duration`` longer on every replica it syncs to."""
        lease = Lease(holder, self.duration, expires_at, renewals)
        self._leases[holder] = lease
        return lease

    def renew(self, holder: str, now: float) -> Optional[Lease]:
        """Renew an existing lease; returns None (renewal refused) when the
        lease already expired — the holder must re-register."""
        lease = self._leases.get(holder)
        if lease is None or not lease.valid_at(now):
            return None
        lease.expires_at = now + self.duration
        lease.renewals += 1
        return lease

    def release(self, holder: str) -> bool:
        """Voluntary removal at shutdown (§2.4 'properly informing')."""
        return self._leases.pop(holder, None) is not None

    def expire(self, now: float) -> List[str]:
        """Purge lapsed leases; returns the purged holders."""
        lapsed = [h for h, lease in self._leases.items() if not lease.valid_at(now)]
        for holder in lapsed:
            del self._leases[holder]
            if self.on_expire is not None:
                self.on_expire(holder)
        return lapsed

    def holders(self, now: Optional[float] = None) -> List[str]:
        if now is None:
            return sorted(self._leases)
        return sorted(h for h, lease in self._leases.items() if lease.valid_at(now))

    def get(self, holder: str) -> Optional[Lease]:
        return self._leases.get(holder)

