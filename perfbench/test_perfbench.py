"""Tests of the benchmark's own parts: percentiles, seeded inputs, tracing.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from perfbench import inputs, layers, stats
from perfbench.tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- percentile helper ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    p, value = stats.tail([float(i) for i in range(n)])
    assert p == expected
    if expected is not None:
        assert value == pytest.approx(stats.percentile(list(range(n)), expected))
        assert sum(1 for i in range(n) if i > value) >= stats.MIN_BEYOND


def test_percentile_of_nothing_is_nan():
    assert stats.percentile([], 50) != stats.percentile([], 50)


def test_reference_kernel_takes_a_steady_millisecond_or_so():
    times = sorted(stats.reference_seconds() for _ in range(9))
    assert 1e-4 < times[4] < 0.05


# -- seeded inputs -------------------------------------------------------------


@pytest.mark.parametrize("workload", ["ingest", "search", "served_rw"])
def test_same_seed_gives_byte_identical_inputs(workload):
    first = inputs.build(workload, 7, small=True)
    again = inputs.build(workload, 7, small=True)
    other = inputs.build(workload, 8, small=True)
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()


def test_variant_is_deterministic_and_distinct():
    image = inputs.build("search", 3, small=True).queries[0][0]
    a, b = inputs.variant(image, 3, 1), inputs.variant(image, 3, 1)
    assert a.pixels.tobytes() == b.pixels.tobytes()
    assert a.pixels.tobytes() != inputs.variant(image, 3, 2).pixels.tobytes()


def test_held_out_queries_are_not_library_frames():
    data = inputs.build("search", 5, small=True)
    stored = {f.pixels.tobytes() for v in data.library for f in v.frames}
    assert all(image.pixels.tobytes() not in stored for image, _c in data.queries)


# -- tracer --------------------------------------------------------------------


class _Layer:
    def outer(self):
        time.sleep(0.02)
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.01)


def test_spans_link_to_parents_and_self_time_excludes_children():
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "outer", after=lambda a, r, s: {"outer.calls": 1})
    tracer.wrap(_Layer, "inner", "inner")
    try:
        assert _Layer().outer() == "done"
    finally:
        tracer.uninstall()
    by_name = {}
    for op, span, parent, name, t0, t1 in tracer.spans:
        by_name.setdefault(name, []).append((op, span, parent))
    (outer_op, outer_span, outer_parent), = by_name["outer"]
    assert outer_parent == 0
    assert [(op, parent) for op, _s, parent in by_name["inner"]] == [
        (outer_op, outer_span), (outer_op, outer_span)]
    assert tracer.counts["outer.calls"] == 1
    assert tracer.self_time("outer") == pytest.approx(
        tracer.busy("outer") - tracer.busy("inner"), abs=1e-9)
    assert 0.015 < tracer.self_time("outer") < tracer.busy("outer")


def test_uninstall_restores_the_original_attributes():
    original = _Layer.__dict__["inner"]
    tracer = Tracer()
    tracer.wrap(_Layer, "inner", "inner")
    assert _Layer.__dict__["inner"] is not original
    tracer.uninstall()
    assert _Layer.__dict__["inner"] is original


def test_same_layer_reentry_is_one_span():
    class Recursive:
        def walk(self, n):
            return 0 if n == 0 else 1 + self.walk(n - 1)

    tracer = Tracer()
    tracer.wrap(Recursive, "walk", "walk")
    try:
        assert Recursive().walk(3) == 3
    finally:
        tracer.uninstall()
    assert tracer.calls("walk") == 1


# -- the metric lists in BENCHMARK.json ------------------------------------------


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    from perfbench.run import END_TO_END

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    emitted = layers.ledger(Tracer(), {})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_v, unit) in emitted.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _series, _statistic) in END_TO_END.items()}
    assert [w["name"] for w in spec["workloads"]] == ["ingest", "search", "served_rw"]
