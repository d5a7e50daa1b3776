"""ACE user applications (Chapter 5) and the machinery to run them.

* :mod:`repro.apps.runner` — generic application processes with the three
  execution classes of §5.1–5.3 (temporary / restart / robust) and the
  registry the HAL launches from.
* :mod:`repro.apps.vnc` — the VNC workspace emulation (§5.4, Fig. 16).
* :mod:`repro.apps.ophone` — O-Phone duplex audio over IP (§5.5).
* :mod:`repro.apps.robust` — the watcher/restart manager the paper calls
  "the next step in our current development" (§5.2), built on notifications
  + the persistent store.
"""

from repro.apps.runner import (
    AppClass,
    AppRegistry,
    AppState,
    Application,
)

__all__ = [
    "AppClass",
    "AppRegistry",
    "AppState",
    "Application",
]
