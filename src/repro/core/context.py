"""Shared per-environment state every daemon is constructed with.

The :class:`DaemonContext` bundles the simulation kernel, the network, RNG
streams, the trace recorder, the well-known bootstrap addresses (§2.4: the
ASD's "fixed socket location ... known to all ACE daemons"), and the
security configuration (certificates, principal keys, KeyNote policies).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.net import Address, Network
from repro.net.address import WellKnownPorts
from repro.security.crypto import Certificate, CertificateAuthority, KeyPair
from repro.security.keynote import Assertion
from repro.sim import RngRegistry, Simulator, TraceRecorder

from repro.core.lookup_cache import LookupCache
from repro.core.policy import ResilienceRegistry
from repro.obs import Observability

if TYPE_CHECKING:
    from repro.store.sharding import StoreRoute


class SecurityMode(enum.Enum):
    """How much of Chapter 3 is switched on (experiment E5 sweeps this)."""

    NONE = "none"              # plain sockets, claimed identities
    SSL = "ssl"                # encrypted channels, server-authenticated
    SSL_KEYNOTE = "ssl+keynote"  # + signed client attach + per-command KeyNote


@dataclass
class SecurityConfig:
    mode: SecurityMode = SecurityMode.NONE
    ca: Optional[CertificateAuthority] = None
    #: principal id -> Schnorr public key (clients, users, services)
    principal_keys: Dict[str, int] = field(default_factory=dict)
    #: locally-trusted POLICY assertions installed on every daemon
    policies: List[Assertion] = field(default_factory=list)
    #: seconds a fetched credential set stays cached (0 = refetch always)
    credential_cache_ttl: float = 30.0

    def register_principal(self, name: str, public_key: int) -> None:
        self.principal_keys[name] = public_key


@dataclass
class DaemonContext:
    """Everything a daemon needs to participate in an ACE."""

    sim: Simulator
    net: Network
    rng: RngRegistry = field(default_factory=lambda: RngRegistry(0))
    trace: TraceRecorder = field(default_factory=lambda: TraceRecorder(enabled=True))
    security: SecurityConfig = field(default_factory=SecurityConfig)
    #: bootstrap addresses (None = that infrastructure service is absent)
    asd_address: Optional[Address] = None
    #: every directory replica, primary first; empty = single-ASD install
    #: (clients then fall back to ``[asd_address]``)
    asd_addresses: List[Address] = field(default_factory=list)
    roomdb_address: Optional[Address] = None
    netlogger_address: Optional[Address] = None
    authdb_address: Optional[Address] = None
    #: the E27 telemetry aggregator (None until ``env.enable_telemetry()``)
    telemetry_address: Optional[Address] = None
    #: where every store path lives (``repro.store.sharding.StoreRoute``:
    #: shard map, per-group and sorted flat addresses); None = no store
    store_route: Optional["StoreRoute"] = None
    #: lease the ASD grants to registered services, seconds (§2.4)
    lease_duration: float = 30.0
    #: renew after this fraction of the lease has elapsed
    lease_renew_fraction: float = 0.5
    #: CPU work charged per command dispatch, bogomips-seconds
    dispatch_work: float = 2.0
    #: shared breakers/counters/lookup-cache for the resilient RPC layer
    resilience: ResilienceRegistry = field(default_factory=ResilienceRegistry)
    #: when set, clients stamp every resilient call with a ``(o_cid,
    #: o_cseq)`` idempotency token that survives retries and failover, and
    #: daemons dedup on it — off by default so the pre-recovery wire
    #: traffic (and determinism hashes) stay byte-identical
    idempotent_retries: bool = False
    #: per-host SupervisorDaemon plane (populated by
    #: ``env.enable_supervision()``); daemons beat into their host's
    #: supervisor on every successful lease renewal
    supervisors: Dict[str, object] = field(default_factory=dict)
    #: causal tracer + metrics registry (built in __post_init__ when unset)
    obs: Optional[Observability] = None
    #: shared client-side directory cache (built in __post_init__ when unset)
    lookup_cache: Optional[LookupCache] = None

    def __post_init__(self) -> None:
        if self.obs is None:
            self.obs = Observability(self.sim, self.rng)
        # The RPC layer's counters read as the registry's ``rpc.*`` view.
        self.obs.metrics.register_view("rpc", self.resilience.stats.snapshot)
        if self.lookup_cache is None:
            self.lookup_cache = LookupCache(metrics=self.obs.metrics)
        #: monotonically minted client ids for idempotency stamps
        self._client_id_counter = 0

    def next_client_id(self, principal: str = "client") -> str:
        """Mint a unique, deterministic client id for idempotency stamps."""
        n = self._client_id_counter
        self._client_id_counter += 1
        return f"{principal}.c{n}"

    def default_bootstrap(self, asd_host: str) -> None:
        """Point the well-known addresses at conventional ports on one host."""
        self.asd_address = Address(asd_host, WellKnownPorts.ASD)
        self.roomdb_address = Address(asd_host, WellKnownPorts.ROOM_DB)
        self.netlogger_address = Address(asd_host, WellKnownPorts.NET_LOGGER)
        self.authdb_address = Address(asd_host, WellKnownPorts.AUTH_DB)

    def directory_addresses(self) -> List[Address]:
        """Every ASD replica a client may query, primary first."""
        if self.asd_addresses:
            return list(self.asd_addresses)
        return [self.asd_address] if self.asd_address is not None else []

    def issue_identity(self, subject: str) -> tuple[KeyPair, Optional[Certificate]]:
        """Mint a keypair (+ certificate when a CA is configured) and record
        the principal key so peers can verify signatures."""
        if self.security.ca is not None:
            keypair, cert = self.security.ca.issue_keypair(subject)
        else:
            keypair = KeyPair.generate(self.rng.py(f"identity.{subject}"))
            cert = None
        self.security.register_principal(keypair.principal(), keypair.public)
        return keypair, cert
