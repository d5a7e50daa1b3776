"""The ACE service daemon infrastructure (Chapter 2 of the paper).

This is the paper's primary contribution: a base
:class:`~repro.core.daemon.ACEDaemon` whose four logical threads
(main / command / data / control, §2.1.1) communicate over message queues;
a client proxy (:mod:`repro.core.client`); notification lists (§2.5);
service leases (§2.4); the daemon startup sequence (§2.6, Fig. 9); and the
KeyNote authorization hook (§3.2, Fig. 10).

Concrete services subclass :class:`ACEDaemon`, declare their command
semantics, and implement ``cmd_<name>`` handlers; everything else —
sockets, SSL, parsing, validation, auth, notification fan-out, ASD
registration and lease renewal — is inherited, which is exactly the
"simple, standard, and modular task" §2.1 promises.
"""

from repro.core.context import DaemonContext, SecurityMode
from repro.core.daemon import ACEDaemon, Request, ServiceError
from repro.core.client import (
    CallError,
    ConnectionPool,
    Service,
    ServiceClient,
    ServiceConnection,
)
from repro.core.leases import Lease, LeaseTable
from repro.core.lookup_cache import LookupCache, query_key
from repro.core.notifications import NotificationEntry, NotificationTable
from repro.core.policy import (
    BreakerOpen,
    CallPolicy,
    CircuitBreaker,
    DeadlineExceeded,
    ResilienceRegistry,
    TransportError,
)

__all__ = [
    "ACEDaemon",
    "BreakerOpen",
    "CallError",
    "CallPolicy",
    "CircuitBreaker",
    "ConnectionPool",
    "DaemonContext",
    "DeadlineExceeded",
    "Lease",
    "LeaseTable",
    "LookupCache",
    "query_key",
    "NotificationEntry",
    "NotificationTable",
    "Request",
    "ResilienceRegistry",
    "SecurityMode",
    "Service",
    "ServiceClient",
    "ServiceConnection",
    "ServiceError",
    "TransportError",
]
