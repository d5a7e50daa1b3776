"""``benchmarks.conftest.record`` — the one baseline guard every tracked
experiment ends in: compare against the committed ``BENCH_<E>.json``, fail
or warn, and write the report only where ``ACE_BENCH_ARTIFACT_DIR`` says.
"""

import json

import pytest

from benchmarks import conftest as bench


def report(**fields):
    return {"experiment": "EX", "short": True, **fields}


@pytest.fixture
def root(tmp_path, monkeypatch):
    """A repo root holding nothing but what a test commits to it; the
    working directory is that root, no artifact directory, guard on."""
    monkeypatch.setattr(bench, "REPO_ROOT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ACE_BENCH_ARTIFACT_DIR", raising=False)
    monkeypatch.setenv("ACE_BENCH_GUARD", "1")
    return tmp_path


def commit(root, baseline):
    (root / "BENCH_EX.json").write_text(json.dumps(baseline))


def failure(**kwargs):
    with pytest.raises(pytest.fail.Exception) as info:
        bench.record(**kwargs)
    return str(info.value)


def test_grows_past_the_bound_fails_within_it_passes(root):
    commit(root, report(run={"mean_s": 1.0}))
    bench.record(report(run={"mean_s": 1.19}), grows=["run.mean_s"])
    message = failure(report=report(run={"mean_s": 1.25}), grows=["run.mean_s"])
    assert "run.mean_s: measured 1.25, committed 1" in message
    assert "BENCH_EX.json" in message


def test_drops_past_the_bound_fails_within_it_passes(root):
    commit(root, report(codec={"speedup": 6.0}))
    bench.record(report(codec={"speedup": 5.0}), drops=["codec.speedup"])
    bench.record(report(codec={"speedup": 60.0}), drops=["codec.speedup"])
    message = failure(report=report(codec={"speedup": 4.0}), drops=["codec.speedup"])
    assert "codec.speedup: measured 4, committed 6" in message


def test_equal_drift_fails_on_every_key_a_star_matches(root):
    commit(root, report(sweep={"a": {"h": "x"}, "b": {"h": "y"}}))
    bench.record(report(sweep={"a": {"h": "x"}, "b": {"h": "y"}}), equal=["sweep.*.h"])
    message = failure(report=report(sweep={"a": {"h": "x"}, "b": {"h": "z"}}),
                      equal=["sweep.*.h"])
    assert "sweep.b.h: measured 'z', committed 'y'" in message
    assert "sweep.a.h" not in message


def test_a_star_applies_the_bound_to_each_key(root):
    commit(root, report(sweep={"a": {"mttr_s": 2.0}, "b": {"mttr_s": 2.0}}))
    message = failure(
        report=report(sweep={"a": {"mttr_s": 2.1}, "b": {"mttr_s": 3.0}}),
        grows=["sweep.*.mttr_s"])
    assert "sweep.b.mttr_s" in message and "sweep.a.mttr_s" not in message


def test_a_misspelled_path_compares_nothing_and_fails(root):
    commit(root, report(codec={"speedup": 6.0}))
    message = failure(report=report(codec={"speedup": 6.0}), drops=["codec.sppedup"])
    assert "codec.sppedup: matches nothing in the report" in message


def test_a_value_that_became_none_fails(root):
    commit(root, report(run={"hash": "abc", "mean_s": 1.0}))
    message = failure(report=report(run={"hash": None, "mean_s": 1.0}),
                      equal=["run.hash"])
    assert "run.hash: measured None, committed 'abc'" in message
    message = failure(report=report(run={"hash": "abc", "mean_s": None}),
                      grows=["run.mean_s"])
    assert "run.mean_s: measured None, committed 1.0" in message


def test_a_value_the_baseline_lacks_fails(root):
    commit(root, report(sweep={"a": {"mttr_s": 2.0}}))
    message = failure(
        report=report(sweep={"a": {"mttr_s": 2.0}, "b": {"mttr_s": 2.0}}),
        grows=["sweep.*.mttr_s"])
    assert "sweep.b.mttr_s: measured 2.0, nothing committed" in message


def test_a_run_of_the_other_length_is_no_baseline(root):
    commit(root, {**report(run={"mean_s": 1.0}), "short": False})
    message = failure(report=report(run={"mean_s": 1.0}), grows=["run.mean_s"])
    assert "no comparable baseline: BENCH_EX.json holds a short=False run" in message


def test_no_baseline_compares_nothing_and_passes(root):
    bench.record(report(run={"mean_s": 99.0}), grows=["run.mean_s"])


def test_guard_off_only_warns(root, monkeypatch, capsys):
    monkeypatch.delenv("ACE_BENCH_GUARD")
    commit(root, report(run={"mean_s": 1.0}))
    bench.record(report(run={"mean_s": 2.0}), grows=["run.mean_s"])
    assert "WARNING (perf): run.mean_s: measured 2, committed 1" in capsys.readouterr().out


def test_without_an_artifact_directory_nothing_is_written(root, monkeypatch):
    monkeypatch.delenv("ACE_BENCH_GUARD")
    commit(root, report(run={"mean_s": 1.0}))
    committed = (root / "BENCH_EX.json").read_bytes()
    bench.record(report(run={"mean_s": 5.0}), grows=["run.mean_s"])
    bench.write_artifact("table.txt", "text\n")
    assert sorted(p.name for p in root.iterdir()) == ["BENCH_EX.json"]
    assert (root / "BENCH_EX.json").read_bytes() == committed


def test_the_artifact_directory_gets_the_report_as_committed(root, monkeypatch):
    monkeypatch.setenv("ACE_BENCH_ARTIFACT_DIR", str(root / "out"))
    measured = report(b=[1, 2], a={"z": 1.5, "y": None})
    bench.record(measured)
    written = (root / "out" / "BENCH_EX.json").read_text()
    assert written == json.dumps(measured, indent=2, sort_keys=True) + "\n"
