"""Comparison baselines for the paper's qualitative claims.

* :mod:`repro.baselines.rmi` — a Java-RMI-flavoured remote-invocation
  protocol (pickled call envelopes with interface descriptors), matched
  against the ACE command language for experiment E1 ("much more
  lightweight than RMI", §2.2/§8.1).
* :mod:`repro.baselines.jini` — Jini-style discovery: multicast lookup
  location, serialized service *proxies* shipped to clients (§8.4), for
  experiment E17 against the ASD.
* :mod:`repro.baselines.central` — a WebSphere-style centralized gateway
  all device traffic routes through (§8.3), for the locality experiment
  E16 against ACE's distributed placement.
"""

from repro.baselines.rmi import RMIClient, RMIEnvelope, RMIServer
from repro.baselines.jini import JiniLookupService, JiniServiceProxy
from repro.baselines.central import CentralGatewayDaemon

__all__ = [
    "CentralGatewayDaemon",
    "JiniLookupService",
    "JiniServiceProxy",
    "RMIClient",
    "RMIEnvelope",
    "RMIServer",
]
