"""The three workloads.

Each workload function takes a ``Context`` and returns an ``Outcome``.
The untraced pass gives the end-to-end metrics; a traced run adds a
second, traced pass that gives the per-layer ledger and the tracing
overhead (traced over untraced median of the workload's main
operation).  Why each workload exists is in NOTES.md.

Every end-to-end metric is reported by every workload, measured on that
workload's own library and channel:

- ``ingest``: adds videos in a closed loop; the query metrics come from
  query slots run against the first round's library between later
  add_video calls.
- ``search``: the query loop; the ingest metrics come from building its
  library through the admin API during set-up.
- ``served_rw``: frame-query metrics are HTTP requests at the middle
  rung of the rate ladder; the ingest metrics come from short videos
  added between rungs to a copy of the library, the other query types
  from query slots run there too.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench import layers, loadgen, stats
from perfbench.inputs import INGEST_SHOTS, build
from perfbench.ops import (
    TOP_K,
    Ops,
    Tally,
    add_videos,
    counters,
    dir_bytes,
    precision_at_k,
    ranking,
    start_sharded,
    well_formed,
)
from perfbench.stats import reference_seconds
from perfbench.tracer import Tracer
from repro.core.system import VideoRetrievalSystem
from repro.video.codec import encode_rvf_bytes

HERE = os.path.dirname(os.path.abspath(__file__))

#: served_rw: the arrival-rate ladder (requests/s) and each rung's share of
#: the run; the middle rung, below saturation on a 2-core host, gives the
#: served latency metrics and gets most of the time for >=100 samples
RATES: Tuple[float, ...] = (8.0, 20.0, 30.0)
RUNG_SHARES: Tuple[float, ...] = (0.2, 0.6, 0.2)
#: latency limit on a rung's tail percentile for the rung to be met
LATENCY_LIMIT_MS = 250.0
#: median lateness growth (ms, last third of a rung over its first third)
#: that marks a rung invalid: the generator fell behind, a backlog grew
LATENESS_ALLOWANCE_MS = 20.0
ZIPF_S = 1.0
#: served_rw: catalogue entries checked over HTTP against an in-process reopen
SAMPLE_CHECKS = 80
#: query slots (``Ops.slot``) spread over an ingest or served_rw run: they
#: give those workloads' frame, clip, feedback and sharded samples
SLOTS = 20
#: served_rw: short videos added to (and deleted from) the library copy in
#: each gap between rungs; they give its ingest samples
WRITES_PER_GAP = 3
#: served_rw: host reference samples at the end of each gap; the served
#: middle rung's cost divides by those of the gaps around it
REFS_PER_GAP = 40


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    #: scratch directory for this run's libraries (removed afterwards)
    work: str
    #: path prefix of the span files a traced run writes
    spans: str


@dataclass
class Outcome:
    setup_s: float
    #: every operation attempted, timed ones and checks
    tally: Tally
    #: wall seconds per operation of the untraced pass, by series name
    samples: Dict[str, List[float]]
    #: wall seconds of ingest work (checkpoints included) per video
    ingest_seconds_per_video: float
    stored_bytes_per_raw_byte: float
    precision_at_20: float
    digest: str
    info: Dict[str, object] = field(default_factory=dict)
    #: traced runs: per-layer metrics, name -> (value, unit)
    ledger: Dict[str, tuple] = field(default_factory=dict)


def _passes(ctx: Context, measure: Callable[[str], Tally], primary: str,
            read_counters: Callable[[], Dict[str, float]]) -> Tuple[Tally, Dict[str, tuple]]:
    """The untraced pass, and in a traced run a traced one and its ledger."""
    plain = measure("plain")
    if not ctx.trace:
        return plain, {}
    tracer = Tracer()
    layers.install(tracer)
    before = read_counters()
    try:
        traced = measure("traced")
    finally:
        tracer.uninstall()
    after = read_counters()
    extra = {k: after[k] - before[k] for k in after}
    extra["trace.overhead_share"] = (stats.summary(traced.samples[primary])["mean"]
                                     / stats.summary(plain.samples[primary])["mean"] - 1.0)
    ledger = layers.ledger(tracer, extra)
    tracer.dump(ctx.spans + ".jsonl")
    plain.merge(traced)
    return plain, ledger


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def ingest(ctx: Context) -> Outcome:
    """Closed-loop add_video rounds into fresh durable libraries."""
    times = []
    for _ in range(5):  # set-up is cheap here: report the median of five
        t0 = time.perf_counter()
        inputs = build("ingest", ctx.seed)
        times.append(time.perf_counter() - t0)
    tally = Tally()
    suite = Tally()  # the query slots between add_video calls
    kept: Dict[str, object] = {}
    fallbacks = [0.0]  # pool fallbacks summed over closed round systems

    def next_slot() -> None:
        if kept["ops"].slots < SLOTS:
            kept["ops"].slot()

    def measure(label: str) -> Tally:
        """Whole rounds of the video list, each into a new library and
        ending in a checkpoint, until the run time is up.  Rounds are never
        cut short, so every round adds the same mix of lengths.  In the
        untraced pass, later rounds run a query slot against round 0's
        library after each add_video (outside its timing) until there
        are ``SLOTS``."""
        t = Tally()
        busy, r = 0.0, 0
        start = time.perf_counter()
        while r == 0 or time.perf_counter() - start < ctx.seconds:
            path = os.path.join(ctx.work, f"{label}-round{r}", "lib.rdb")
            os.makedirs(os.path.dirname(path))
            system = VideoRetrievalSystem.open(path)
            added = len(t.samples["ingest_video"])
            busy += add_videos(system, inputs.library, t,
                               next_slot if label == "plain" and "ops" in kept else None)
            if r == 0:  # no query slots yet: the tracing overhead compares these
                t.samples["ingest_video_round0"] = t.samples["ingest_video"][added:]
            if r == 0 and label == "plain":
                sharded = start_sharded(system, os.path.join(ctx.work, "shards"))
                kept.update(system=system, path=path, sharded=sharded,
                            ops=Ops(system, inputs, ctx.seed, suite, sharded))
            else:
                fallbacks[0] += counters(system, [])["pool.fallbacks"]
                system.close()
                shutil.rmtree(os.path.dirname(path))
            r += 1
        t.samples["ingest_per_video"] = [busy / (r * len(inputs.library))]
        return t

    plain, ledger = _passes(ctx, measure, "ingest_video_round0",
                            lambda: {"pool.fallbacks": fallbacks[0]})
    tally.merge(plain)

    live: VideoRetrievalSystem = kept["system"]
    while kept["ops"].slots < SLOTS:  # a fast ingest leaves few slots
        kept["ops"].slot()
    kept["sharded"].close()
    library = os.path.dirname(kept["path"])
    stored = dir_bytes(library) / inputs.raw_bytes
    probes = [ranking(live.search(image, top_k=TOP_K)) for image, _c in inputs.queries]
    precision = Ops(live, inputs, ctx.seed, tally).precision()
    n_live = live.n_key_frames()
    live.close()
    # the library reopened from its snapshot answers like the live system
    reopened = VideoRetrievalSystem.open(kept["path"])
    try:
        served_from = (reopened.snapshot_stats() or {}).get("served_from")
        tally.check(served_from == "mmap", f"reopen: served from {served_from}, not the snapshot")
        tally.check(reopened.n_key_frames() == n_live, "reopen: key-frame count differs")
        for (image, _c), expected in zip(inputs.queries, probes):
            tally.check(ranking(reopened.search(image, top_k=TOP_K)) == expected,
                        "reopen: probe ranking differs from the live system")
    finally:
        reopened.close()
    tally.merge(suite)
    samples = dict(suite.samples)
    for series in ("ingest_video", "ref:ingest_video"):
        samples[series] = plain.samples[series]
    return Outcome(
        setup_s=statistics.median(times),
        tally=tally,
        samples=samples,
        ingest_seconds_per_video=plain.samples["ingest_per_video"][0],
        stored_bytes_per_raw_byte=stored,
        precision_at_20=precision,
        digest=inputs.digest(),
        info={"videos_per_round": len(inputs.library), "key_frames": n_live,
              "shots_per_video": list(INGEST_SHOTS),
              "videos_added": len(plain.samples["ingest_video"]),
              "query_slots": kept["ops"].slots},
        ledger=ledger,
    )


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def search(ctx: Context) -> Outcome:
    """Closed-loop in-process queries of four types over ~1000 key frames."""
    t0 = time.perf_counter()
    inputs = build("search", ctx.seed)
    tally = Tally()
    path = os.path.join(ctx.work, "library", "lib.rdb")
    os.makedirs(os.path.dirname(path))
    system = VideoRetrievalSystem.open(path)
    sharded = None
    try:
        build_s = add_videos(system, inputs.library, tally)
        sharded = start_sharded(system, os.path.join(ctx.work, "shards"))
        # first queries build the prepared matrices and start the shard workers
        warm = inputs.queries[0][0]
        system.search(warm, top_k=TOP_K)
        sharded.query_frame(warm, top_k=TOP_K)
        setup_s = time.perf_counter() - t0
        stored = dir_bytes(os.path.dirname(path)) / inputs.raw_bytes
        ops = Ops(system, inputs, ctx.seed, tally, sharded)

        def measure(label: str) -> Tally:
            """Per cycle: a frame query and the same input through the shards;
            every 2nd cycle a feedback re-rank; every 4th a clip query."""
            ops.tally = t = Tally()
            start = time.perf_counter()
            cycle = 0
            while time.perf_counter() - start < ctx.seconds:
                ops.frame()
                if cycle % 2 == 0:
                    ops.feedback()
                if cycle % 4 == 0:
                    ops.clip()
                cycle += 1
            return t

        plain, ledger = _passes(ctx, measure, "frame_query",
                                lambda: counters(system, [sharded]))
        ops.tally = tally
        precision = ops.precision()
        n_kf = system.n_key_frames()
    finally:
        if sharded is not None:
            sharded.close()
        system.close()
    samples = dict(plain.samples)
    for series in ("ingest_video", "ref:ingest_video"):
        samples[series] = tally.samples[series]
    tally.merge(plain)
    return Outcome(
        setup_s=setup_s,
        tally=tally,
        samples=samples,
        ingest_seconds_per_video=build_s / len(inputs.library),
        stored_bytes_per_raw_byte=stored,
        precision_at_20=precision,
        digest=inputs.digest(),
        info={"videos": len(inputs.library), "key_frames": n_kf, "shards": sharded.n_shards},
        ledger=ledger,
    )


# ---------------------------------------------------------------------------
# served_rw
# ---------------------------------------------------------------------------


class _Child:
    """The served workload's server process (perfbench/served_child.py)."""

    def __init__(self, library: str, report: str, spans: str):
        self.report = report
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "served_child.py"),
             "--library", library, "--out", report, "--spans", spans],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "ready":
            self.kill()
            raise RuntimeError(f"served child did not start: {line}")
        self.port = int(line[1])

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def stop(self) -> Dict[str, object]:
        """Ask the child to stop, wait for it and return its report."""
        self.command("stop")
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()
        with open(self.report) as fh:
            return json.load(fh)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def _search_rows(req: loadgen.Request) -> Optional[List[dict]]:
    """The ranking of a served search, or None unless it is well formed."""
    if req.status != 200:
        return None
    rows = json.loads(req.body)["results"]
    return rows if well_formed(row["distance"] for row in rows) else None


def _rung_report(rung: loadgen.Rung, tally: Tally) -> Dict[str, object]:
    """Count a finished rung's requests into ``tally`` and summarise it."""
    expected = {"search": 200, "upload": 201, "delete": 200}
    for req in rung.requests:
        answered = req.status == expected[req.kind]
        if answered and req.kind == "search":
            tally.check(_search_rows(req) is not None, "served search: malformed ranking")
        else:
            tally.op(answered, f"served {req.kind}: status {req.status} {req.body[:200]!r}")
    searches = rung.searches()
    # a failed request has no latency; it counts in ``failed`` instead
    latency = [(r.done - r.due) * 1000.0 for r in searches if r.status == 200]
    late = [(r.sent - r.due) * 1000.0 for r in searches]
    failed = sum(1 for r in rung.requests if r.status != expected[r.kind])
    tail_p, tail_ms = stats.tail(latency)
    growing = loadgen.lateness_grows(searches, LATENESS_ALLOWANCE_MS)
    return {
        "rate": rung.rate,
        "sent": len(rung.requests),
        "succeeded": len(rung.requests) - failed,
        "failed": failed,
        "p50_ms": stats.percentile(latency, 50),
        "mean_ms": stats.summary(latency)["mean"],
        "tail_p": tail_p,
        "tail_ms": tail_ms,
        "lateness_p50_ms": stats.percentile(late, 50),
        "lateness_tail_ms": stats.tail(late)[1],
        "lateness_grows": growing,
        "valid": not growing,
        "met": (not growing) and failed == 0 and tail_ms <= LATENCY_LIMIT_MS,
        "upload_ms": [(r.done - r.due) * 1000.0 for r in rung.requests if r.kind == "upload"],
        "latency_ms": latency,
        "lateness_ms": late,
    }


def served_rw(ctx: Context) -> Outcome:
    """Open-loop HTTP searches plus uploads and deletes against a child server."""
    t0 = time.perf_counter()
    inputs = build("served_rw", ctx.seed)
    tally = Tally()
    path = os.path.join(ctx.work, "library", "lib.rdb")
    os.makedirs(os.path.dirname(path))
    system = VideoRetrievalSystem.open(path)
    add_videos(system, inputs.library, Tally())
    n_kf = system.n_key_frames()
    system.close()
    stored = dir_bytes(os.path.dirname(path)) / inputs.raw_bytes
    catalogue = [image for image, _category in inputs.catalogue]
    bodies = [image.encode("ppm") for image in catalogue]
    n_uploads = 2 * len(RATES)
    uploads = [
        (f"upload_{i}", v.category, encode_rvf_bytes(list(v.frames)))
        for i, v in ((i, inputs.uploads[i % len(inputs.uploads)]) for i in range(n_uploads))
    ]
    connections = min(os.cpu_count() or 1, 2)
    # in-process query and write slots run on a copy of the library,
    # between rungs, while the server is idle; a contiguous set-up build
    # would catch one moment of the host's speed drift
    copy = os.path.join(ctx.work, "copy")
    shutil.copytree(os.path.dirname(path), copy)
    local = VideoRetrievalSystem.open(os.path.join(copy, "lib.rdb"))
    local_sharded = start_sharded(local, os.path.join(ctx.work, "shards"))
    suite = Tally()
    slots = Ops(local, inputs, ctx.seed, suite, local_sharded)
    child = None
    try:
        child = _Child(path, os.path.join(ctx.work, "child-report.json"),
                       ctx.spans + "-child.jsonl")
        generator = loadgen.Generator("127.0.0.1", child.port, connections, bodies, uploads)
        # warm-up: prepared matrices, first connections
        generator.run(loadgen.Rung(0.0, [loadgen.Request(0.0, "search", len(bodies) - 1 - j)
                                         for j in range(5)]))
        setup_s = time.perf_counter() - t0

        def measure(label: str) -> Tuple[Tally, List[Dict[str, object]]]:
            t = Tally()
            rng = np.random.default_rng((ctx.seed, label == "traced"))
            first_upload = 0 if label == "plain" else len(RATES)
            reports = []
            gap_refs: List[List[float]] = []

            def gap() -> None:
                """Query and write slots, then host reference samples for
                the rungs on either side; untraced pass only."""
                if label != "plain":
                    return
                for _ in range(SLOTS // (len(RATES) + 1)):
                    slots.slot(sample="frame_query_inprocess")
                for _ in range(WRITES_PER_GAP):
                    n = len(suite.samples["ingest_video"])
                    slots.write(inputs.uploads[n % len(inputs.uploads)], f"write_{n}")
                gap_refs.append([reference_seconds() for _ in range(REFS_PER_GAP)])

            for i, rate in enumerate(RATES):
                gap()
                rung = loadgen.schedule(rate, ctx.seconds * RUNG_SHARES[i], len(bodies),
                                        ZIPF_S, first_upload + i, rng)
                generator.run(rung)
                reports.append(_rung_report(rung, t))
            gap()
            middle = len(RATES) // 2
            t.samples["frame_query"] = [ms / 1000.0 for ms in reports[middle]["latency_ms"]]
            if gap_refs:  # the gaps just before and just after the middle rung
                t.samples["ref:frame_query"] = gap_refs[middle] + gap_refs[middle + 1]
            return t, reports

        plain, plain_rungs = measure("plain")
        tally.merge(plain)
        traced_rungs = None
        if ctx.trace:
            child.command("trace")
            traced, traced_rungs = measure("traced")
            tally.merge(traced)
        sample = loadgen.Rung(0.0, [loadgen.Request(0.0, "search", j)
                                    for j in range(SAMPLE_CHECKS)])
        generator.run(sample)
        http_rows = [_search_rows(req) or [] for req in sample.requests]
        report = child.stop()
    except BaseException:
        if child is not None:
            child.kill()
        raise
    finally:
        local_sharded.close()
        local.close()

    precision = float(np.mean([
        precision_at_k([row["category"] for row in rows], inputs.catalogue[j][1])
        for j, rows in enumerate(http_rows)
    ]))
    # served answers == in-process answers of the reopened library
    # (snapshot + WAL replay of the uploads and deletes)
    reopened = VideoRetrievalSystem.open(path)
    try:
        tally.check(reopened.n_key_frames() == n_kf, "reopen: corpus size changed after the run")
        for j, rows in enumerate(http_rows):
            answer = [(h.frame_id, round(h.distance, 6))
                      for h in reopened.search(catalogue[j], top_k=TOP_K)]
            tally.check(answer == [(r["frame_id"], r["distance"]) for r in rows],
                        "served ranking differs from the reopened library")
    finally:
        reopened.close()
    tally.merge(suite)
    samples = dict(suite.samples)
    for series in ("frame_query", "ref:frame_query"):
        samples[series] = plain.samples[series]

    ledger: Dict[str, tuple] = {}
    if ctx.trace:
        # the layers ran in the child; the overhead and the generator's
        # numbers are measured here
        middle = len(RATES) // 2
        units = layers.ledger(Tracer(), {})
        ledger = {k: (v, units[k][1]) for k, v in report["ledger"].items()}
        met = [r["rate"] for r in traced_rungs if r["met"]]
        for name, value in {
            "trace.overhead_share":
                traced_rungs[middle]["mean_ms"] / plain_rungs[middle]["mean_ms"] - 1.0,
            "loadgen.lateness_ms_tail":
                stats.tail([x for r in traced_rungs for x in r["lateness_ms"]])[1],
            "loadgen.max_valid_rate": max(met) if met else 0.0,
            "loadgen.upload_ms_p50":
                stats.percentile([x for r in traced_rungs for x in r["upload_ms"]], 50),
        }.items():
            ledger[name] = (value, units[name][1])

    def brief(rungs):
        return [{k: v for k, v in r.items() if k not in ("latency_ms", "lateness_ms", "upload_ms")}
                for r in rungs]

    met = [r["rate"] for r in plain_rungs if r["met"]]
    return Outcome(
        setup_s=setup_s,
        tally=tally,
        samples=samples,
        ingest_seconds_per_video=sum(samples["ingest_video"]) / len(samples["ingest_video"]),
        stored_bytes_per_raw_byte=stored,
        precision_at_20=precision,
        digest=inputs.digest(),
        info={
            "videos": len(inputs.library), "key_frames": n_kf, "connections": connections,
            "catalogue": len(bodies), "rungs": brief(plain_rungs),
            "traced_rungs": brief(traced_rungs) if traced_rungs else None,
            "served_max_rate": max(met) if met else 0.0,
            "upload_ms_p50": stats.percentile(
                [x for r in plain_rungs for x in r["upload_ms"]], 50),
        },
        ledger=ledger,
    )


WORKLOADS = {"ingest": ingest, "search": search, "served_rw": served_rw}
