"""The performance ledger: one harness, four named workloads.

``python3 -m bench`` runs the workloads named in ``BENCHMARK.json`` (at the
repository root) against the simulator's public functions and prints every
metric by name with its unit, direction and regression bound.  See
``bench/README.md`` for what each metric means and which layer should move it.
"""

import json
from pathlib import Path
from typing import Any, Dict

#: exit status of ``bench.child`` for "this box has fewer cores than the
#: workload has kernel shards": nothing was measured
EXIT_SKIPPED_CORES = 75

#: the checkout: ``BENCHMARK.json`` and ``src/`` live here
ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workloads, and every metric's name, unit,
    direction and (end-to-end only) regression bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
