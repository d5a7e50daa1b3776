"""Shared benchmark utilities.

Each ``bench_*.py`` file regenerates one of the paper's experiments
(figure/scenario/claim — see DESIGN.md's experiment index):

* the **series the paper's artifact implies** are computed inside a
  simulated ACE and printed as a ResultTable (these are simulated-time
  measurements, deterministic per seed);
* the ``benchmark`` fixture additionally wall-clock-times the experiment
  body (or a representative kernel) so ``pytest --benchmark-only`` gives a
  conventional benchmark report.

Shape assertions (who wins, where crossovers fall) are made with plain
asserts so a regression in the reproduction fails the bench run loudly.

Three environment variables steer a run:

* ``ACE_BENCH_SHORT=1`` — CI-sized populations (read by the experiment
  files that size themselves by it);
* ``ACE_BENCH_GUARD=1`` — :func:`record` fails on a finding instead of
  warning;
* ``ACE_BENCH_ARTIFACT_DIR`` — where reports and text artifacts are
  written; unset, nothing is written (regenerate a committed baseline
  with ``ACE_BENCH_ARTIFACT_DIR=.``).
"""

import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# how far a ``grows`` / ``drops`` value may move from its committed value
BOUND = 0.20


def write_artifact(name, content):
    """Write ``content`` (text, or a JSON-able object) as ``name`` under
    ``ACE_BENCH_ARTIFACT_DIR``; without that directory, write nothing."""
    directory = os.environ.get("ACE_BENCH_ARTIFACT_DIR")
    if not directory:
        return
    if not isinstance(content, str):
        content = json.dumps(content, indent=2, sort_keys=True) + "\n"
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
        fh.write(content)


def _lookup(tree, path):
    """``(dotted path, value)`` for every leaf ``path`` names in ``tree``;
    ``*`` matches every key at its level, a missing key matches nothing."""
    found = [("", tree)]
    for part in path.split("."):
        found = [(f"{at}.{key}" if at else key, node[key])
                 for at, node in found if isinstance(node, dict)
                 for key in (sorted(node) if part == "*" else [part])
                 if key in node]
    return found


def _findings(report, baseline, grows, drops, equal):
    findings = []
    for rule, paths in (("grows", grows), ("drops", drops), ("equal", equal)):
        for path in paths:
            measured_leaves = _lookup(report, path)
            if not measured_leaves:
                # a misspelled or renamed path must not compare nothing
                findings.append(f"{path}: matches nothing in the report")
            committed = dict(_lookup(baseline, path))
            for at, measured in measured_leaves:
                if at not in committed:
                    findings.append(f"{at}: measured {measured!r}, "
                                    f"nothing committed")
                    continue
                was = committed[at]
                if rule == "equal" or measured is None or was is None:
                    if measured != was:
                        findings.append(f"{at}: measured {measured!r}, "
                                        f"committed {was!r}")
                    continue
                change = (measured - was) / was if was else 0.0
                if (change if rule == "grows" else -change) > BOUND:
                    findings.append(f"{at}: measured {measured:g}, committed "
                                    f"{was:g} ({change:+.0%}, bound {BOUND:.0%})")
    return findings


def record(report, *, grows=(), drops=(), equal=()):
    """Guard ``report`` against ``BENCH_<experiment>.json`` at the repo
    root, then write it to ``ACE_BENCH_ARTIFACT_DIR``.

    ``grows`` paths may rise, and ``drops`` paths fall, by at most
    :data:`BOUND` of the committed value; ``equal`` paths must not change.
    Paths are dotted, ``*`` matching every key at its level.  A path that
    matches nothing, a value the baseline lacks, a value that became
    ``None`` and a committed run of the other length (``short``) are
    findings too: a guard that compares nothing must not pass for one that
    held.  Findings fail the test under ``ACE_BENCH_GUARD=1`` and are
    printed as warnings otherwise.
    """
    name = f"BENCH_{report['experiment']}.json"
    baseline_path = os.path.join(REPO_ROOT, name)
    findings = []
    if os.path.exists(baseline_path):
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        if baseline.get("short") != report["short"]:
            findings.append(f"no comparable baseline: {name} holds a "
                            f"short={baseline.get('short')} run")
        else:
            findings = _findings(report, baseline, grows, drops, equal)
    if findings and os.environ.get("ACE_BENCH_GUARD") == "1":
        pytest.fail(f"regression vs committed {name}:\n  " + "\n  ".join(findings))
    for finding in findings:
        print(f"\nWARNING (perf): {finding}")
    write_artifact(name, report)


@pytest.fixture
def table_printer():
    """Collect tables and print them after the test (so -s shows output
    grouped per experiment)."""
    tables = []

    def add(table):
        tables.append(table)
        return table

    yield add
    for table in tables:
        print("\n" + table.render())
