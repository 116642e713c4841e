#!/usr/bin/env python3
"""End-to-end benchmark of the retrieval system.

Run from the repository root::

    python3 perfbench/run.py --workload search --seed 1 --seconds 15 --trace 0

``--workload`` is ``ingest``, ``search`` or ``served_rw`` (NOTES.md says
why each exists).  The untraced run (``--trace 0``) prints every
end-to-end metric with its unit and sample count; the traced run
(``--trace 1``) prints the per-layer ledger instead and writes its spans
under ``.perfbench-out/``.  Before the metrics come a host stamp and the
digest of the generated inputs.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench-out")

#: end-to-end metrics: name -> (unit, sample series, statistic).  The
#: timing metrics are costs: a series' mean (or p90) over the mean of the
#: host reference timed beside it (``stats.reference_seconds``), so that
#: the host's own speed swings cancel (see NOTES.md).
END_TO_END = {
    "setup_s": ("s", None, None),
    "ok_share": ("share", None, None),
    "peak_rss_mb": ("MB", None, None),
    "ingest_cost_per_video": ("ref", "ingest_video", None),
    "add_video_cost": ("ref", "ingest_video", "mean"),
    "stored_bytes_per_raw_byte": ("ratio", None, None),
    "frame_query_cost": ("ref", "frame_query", "mean"),
    "frame_query_p90_cost": ("ref", "frame_query", "p90"),
    "clip_query_cost": ("ref", "clip_query", "mean"),
    "feedback_query_cost": ("ref", "feedback_query", "mean"),
    "sharded_query_cost": ("ref", "sharded_query", "mean"),
    "precision_at_20": ("share", None, None),
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(outcome) -> dict:
    """name -> (value, unit, samples) for every end-to-end metric."""
    import numpy as np

    from perfbench import stats

    tally = outcome.tally
    samples = outcome.samples

    def reference(series: str) -> float:
        return float(np.mean(samples["ref:" + series]))

    out = {
        "setup_s": (outcome.setup_s, 1),
        "ok_share": ((tally.attempted - tally.failed) / max(1, tally.attempted), tally.attempted),
        "peak_rss_mb": (_peak_rss_mb(), 1),
        "ingest_cost_per_video": (outcome.ingest_seconds_per_video / reference("ingest_video"),
                                  len(samples["ingest_video"])),
        "stored_bytes_per_raw_byte": (outcome.stored_bytes_per_raw_byte, 1),
        "precision_at_20": (outcome.precision_at_20, None),
    }
    for name, (_unit, series, statistic) in END_TO_END.items():
        if statistic is not None:
            values = samples[series]
            value = (float(np.mean(values)) if statistic == "mean"
                     else stats.percentile(values, 90.0))
            out[name] = (value / reference(series), len(values))
    return {name: (out[name][0], unit, out[name][1])
            for name, (unit, _series, _statistic) in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="CBVR end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=("ingest", "search", "served_rw"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    # keep every temporary file inside the checkout
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(OUT, "tmp")

    import numpy

    from perfbench import stats
    from perfbench.workloads import LATENCY_LIMIT_MS, RATES, WORKLOADS, Context

    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    work = os.path.join(OUT, tag + "-work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                  work=work, spans=os.path.join(OUT, tag + "-spans"))
    t0 = time.perf_counter()
    try:
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall = time.perf_counter() - t0

    host = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "inputs_sha256": outcome.digest,
        "rates": list(RATES),
        "latency_limit_ms": LATENCY_LIMIT_MS,
        **outcome.info,
    }
    rungs = host.pop("rungs", None)
    traced_rungs = host.pop("traced_rungs", None)
    print("# host " + json.dumps(host))
    for rung in rungs or []:
        print("# rung " + json.dumps(rung))
    for rung in traced_rungs or []:
        print("# traced rung " + json.dumps(rung))

    tally = outcome.tally
    if args.trace:
        metrics = {name: (value, unit, None) for name, (value, unit) in outcome.ledger.items()}
    else:
        metrics = end_to_end(outcome)
        for name in ("frame_query_p90_cost",):
            n = metrics[name][2]
            if not stats.supports(n, 90.0):
                print(f"# warning: {name} from {n} samples has fewer than "
                      f"{stats.MIN_BEYOND} beyond it", file=sys.stderr)
    for name, (value, unit, n) in metrics.items():
        count = "" if n is None else f"  (n={n})"
        print(f"{name:36s} {value:14.6g} {unit}{count}")
    series = {name: {"unit": "ms", **stats.summary([v * 1000.0 for v in values])}
              for name, values in outcome.samples.items()}
    for name, summary in series.items():
        print("# series " + json.dumps({"name": name, **summary}))
    for error in tally.errors[:20]:
        print(f"# failed: {error}", file=sys.stderr)

    # a refused or errored operation counts in ``failed``; only a wrong
    # answer makes the run incorrect
    correct = tally.wrong == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _n) in metrics.items()},
    }
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump({"host": host, "rungs": rungs, "traced_rungs": traced_rungs, "wall_s": wall,
                   "series": series,
                   "samples": {name: n for name, (_v, _u, n) in metrics.items()},
                   "errors": tally.errors[:100], **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
