"""The benchmark-regression gate (``benchmarks/regress.py``) compares right.

The harness is a script, not a package module, so it is loaded by path.
"""

import copy
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "regress.py"


@pytest.fixture(scope="module")
def regress():
    spec = importlib.util.spec_from_file_location("bench_regress", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(regress, value=10.0):
    report = {}
    for path in regress._TRACKED:
        node = report
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return report


def test_equal_reports_have_no_regressions(regress):
    report = _report(regress)
    assert regress.compare_to_baseline(report, copy.deepcopy(report), 0.5) == []


def test_drop_beyond_tolerance_is_a_regression(regress):
    baseline = _report(regress)
    report = copy.deepcopy(baseline)
    report["ingest"]["videos_per_sec"] = 4.0
    found = regress.compare_to_baseline(report, baseline, 0.5)
    assert len(found) == 1 and found[0].startswith("ingest.videos_per_sec:")
    report["ingest"]["videos_per_sec"] = 6.0
    assert regress.compare_to_baseline(report, baseline, 0.5) == []


@pytest.mark.parametrize("index", [0, 1, -1])
def test_tracked_metric_missing_from_run_is_a_regression(regress, index):
    baseline = _report(regress)
    report = copy.deepcopy(baseline)
    path = regress._TRACKED[index]
    node = report
    for key in path[:-2]:
        node = node[key]
    del node[path[-2]]  # the whole row was renamed away
    found = regress.compare_to_baseline(report, baseline, 0.5)
    assert found == [f"{'.'.join(path)}: present in baseline, missing from run"]


def test_metric_new_in_run_is_not_a_regression(regress):
    report = _report(regress)
    baseline = copy.deepcopy(report)
    del baseline["ingest"]
    assert regress.compare_to_baseline(report, baseline, 0.5) == []


def test_committed_baseline_tracks_every_metric(regress):
    import json

    with open(_PATH.parents[1] / "BENCH_throughput.json", encoding="utf-8") as fh:
        baseline = json.load(fh)
    for path in regress._TRACKED:
        assert regress._lookup(baseline, path) is not None, path
