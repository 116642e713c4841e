#!/usr/bin/env python
"""Benchmark-regression harness: ingest + search throughput on synthetic videos.

Builds a synthetic store, times the two pipeline hot paths the runtime
layer optimizes (ingest fan-out, batched distance scoring), and writes
``BENCH_throughput.json`` so successive changes leave a perf trajectory:

- **ingest**   -- full admin pipeline per video (ops/sec, p50/p95 latency)
- **query_frame**   -- frame search over the full store (index pruning off)
- **query_vectors** -- scoring-only re-rank (the relevance-feedback path)
- **query_video**   -- clip-to-clip DP search
- **ann_query_frame** -- IVF candidate index + exact re-rank vs the
  brute-force full scan of ``query_frame``, with a recall@10-vs-brute-force
  column
- **cache_hit** -- repeated identical query served from the LRU result cache
- **obs_overhead** -- the same frame search with full observability
  (metrics + tracing) vs the ``obs_enabled=false`` null-object fast path
- **cold_start** -- open-a-durable-library-and-answer-one-query, the mmap
  snapshot path (``snapshot=require``) vs the SQL rebuild path
  (``snapshot=off``); the CI cold-start lane gates on the same ratio
- **scatter_gather** -- the same scoring-only query served by a 4-shard
  scatter-gather coordinator vs the single-store engine; rankings are
  byte-identical (asserted here and gated by ``scripts/shard_gate.py``),
  only the throughput trajectory is tracked
- **concurrent_serving** -- sustained ops/sec through the asyncio
  front-end over real sockets at a fixed concurrent-client count,
  micro-batching on (coalesced ``query_batch`` calls) vs off
  (``batch_max=1``); the overload/SLO gate lives in
  ``scripts/load_gate.py``

Usage::

    PYTHONPATH=src python benchmarks/regress.py            # full run (~2 min)
    PYTHONPATH=src python benchmarks/regress.py --quick    # CI smoke (~30 s)
    PYTHONPATH=src python benchmarks/regress.py --baseline BENCH_throughput.json

The three query rows keep their one column under the key ``batched``
(the engine's only scoring path).  With ``--baseline`` the run compares
its ops/sec against a previous JSON and reports regressions beyond
``--tolerance``, and a tracked metric the baseline has but the run lacks;
``--strict`` turns those into a non-zero exit (the CI regression gate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.config import SystemConfig
from repro.core.search import SearchEngine
from repro.core.system import VideoRetrievalSystem
from repro.obs import Obs
from repro.video.generator import VideoSpec, generate_video, make_corpus

#: metrics compared against a --baseline file (higher is better)
_TRACKED = [
    ("ingest", "videos_per_sec"),
    ("query_frame", "batched", "ops_per_sec"),
    ("query_vectors", "batched", "ops_per_sec"),
    ("query_video", "batched", "ops_per_sec"),
    ("ann_query_frame", "ann", "ops_per_sec"),
    ("cache_hit", "hit", "ops_per_sec"),
    ("obs_overhead", "disabled", "ops_per_sec"),
    ("cold_start", "mmap", "ops_per_sec"),
    ("scatter_gather", "shards4", "ops_per_sec"),
    ("concurrent_serving", "batched", "ops_per_sec"),
]


def _timed(fn: Callable[[], object], repeats: int) -> Dict[str, float]:
    """Run ``fn`` ``repeats`` times; p50/p95 latency (ms) and ops/sec."""
    latencies = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        latencies.append(time.perf_counter() - t0)
    arr = np.asarray(latencies)
    p50 = float(np.percentile(arr, 50))
    return {
        "repeats": repeats,
        "latency_ms": {
            "p50": round(p50 * 1000, 3),
            "p95": round(float(np.percentile(arr, 95)) * 1000, 3),
        },
        "ops_per_sec": round(1.0 / p50, 3) if p50 > 0 else float("inf"),
    }


def _serving_drill(
    server, body: bytes, clients: int, per_client: int
) -> Dict[str, object]:
    """Hammer a started asyncio server with keep-alive clients; ops/sec."""
    import http.client

    base = server.start_in_thread()
    netloc = base.split("//", 1)[1]
    results: List[Optional[List]] = [None] * clients

    def drill(slot: int) -> None:
        conn = http.client.HTTPConnection(netloc, timeout=60)
        local = []
        try:
            for _ in range(per_client):
                t0 = time.perf_counter()
                conn.request("POST", "/search?top_k=20", body=body)
                response = conn.getresponse()
                response.read()
                local.append((response.status, time.perf_counter() - t0))
        finally:
            conn.close()
        results[slot] = local

    threads = [
        threading.Thread(target=drill, args=(i,)) for i in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    flat = [o for worker in results if worker for o in worker]
    arr = np.asarray([lat for _, lat in flat])
    return {
        "requests": len(flat),
        "errors": sum(1 for status, _ in flat if status != 200),
        "ops_per_sec": round(len(flat) / wall, 3),
        "latency_ms": {
            "p50": round(float(np.percentile(arr, 50)) * 1000, 3),
            "p95": round(float(np.percentile(arr, 95)) * 1000, 3),
        },
    }


def run_benchmarks(
    n_videos: int,
    n_shots: int,
    frames_per_shot: int,
    repeats: int,
    workers: int,
    seed: int,
) -> Dict[str, object]:
    width, height = 64, 48
    corpus = make_corpus(
        videos_per_category=-(-n_videos // 5),  # 5 categories in the generator
        seed=seed,
        width=width,
        height=height,
        n_shots=n_shots,
        frames_per_shot=frames_per_shot,
    )[:n_videos]

    # -- ingest ---------------------------------------------------------------
    system = VideoRetrievalSystem.in_memory(SystemConfig(workers=workers))
    per_video = []
    t_total0 = time.perf_counter()
    for video in corpus:
        t0 = time.perf_counter()
        system.admin.add_video(video)
        per_video.append(time.perf_counter() - t0)
    ingest_seconds = time.perf_counter() - t_total0
    n_keyframes = system.n_key_frames()
    arr = np.asarray(per_video)
    ingest = {
        "videos": len(corpus),
        "frames": sum(v.n_frames for v in corpus),
        "keyframes": n_keyframes,
        "workers": workers,
        "seconds": round(ingest_seconds, 3),
        "videos_per_sec": round(len(corpus) / ingest_seconds, 3),
        "keyframes_per_sec": round(n_keyframes / ingest_seconds, 3),
        "latency_ms": {
            "p50": round(float(np.percentile(arr, 50)) * 1000, 3),
            "p95": round(float(np.percentile(arr, 95)) * 1000, 3),
        },
    }
    print(
        f"ingest    {len(corpus)} videos, {n_keyframes} key frames in "
        f"{ingest_seconds:.1f}s ({ingest['keyframes_per_sec']:.1f} kf/s)"
    )

    # the query-result cache is off so repeated timing iterations measure
    # the scoring path, not cache hits
    batched_engine = SearchEngine(
        system.config.with_(query_cache_size=0),
        system._store,
        system._index,
    )

    def timed_row(label: str, fn) -> Dict[str, object]:
        batched = _timed(fn, repeats)
        print(f"{label:13s} p50 {batched['latency_ms']['p50']:8.1f}ms")
        return {"batched": batched}

    # -- frame query (full scan: index pruning off to measure scoring) --------
    query_image = system.any_key_frame()
    result = {
        "query_frame": timed_row(
            "query_frame",
            lambda: batched_engine.query_frame(query_image, top_k=20, use_index=False),
        )
    }

    # -- scoring-only re-rank (relevance feedback's entry point) --------------
    names = list(system.config.features)
    query_vectors = {
        name: batched_engine.extractors[name].extract(query_image) for name in names
    }
    result["query_vectors"] = timed_row(
        "query_vectors",
        lambda: batched_engine.query_with_vectors(query_vectors, top_k=20),
    )

    # -- video query ----------------------------------------------------------
    clip = generate_video(
        VideoSpec(
            category="sports",
            seed=seed + 4099,
            width=width,
            height=height,
            n_shots=1,
            frames_per_shot=3,
        )
    )
    result["query_video"] = timed_row(
        "query_video",
        lambda: batched_engine.query_video(clip, top_k=10),
    )

    # -- IVF candidate index vs the brute-force full scan ---------------------
    # "ann" probes the IVF cells and re-ranks the probed union exactly;
    # the brute-force side is the query_frame row above (same query, no
    # candidate index).
    ann_cells, ann_nprobe = 16, 3
    ann_engine = SearchEngine(
        system.config.with_(
            query_cache_size=0,
            ann=True,
            ann_cells=ann_cells,
            ann_nprobe=ann_nprobe,
        ),
        system._store,
        system._index,
    )
    ann = _timed(
        lambda: ann_engine.query_frame(query_image, top_k=20, use_index=False),
        repeats,
    )
    brute_p50 = result["query_frame"]["batched"]["latency_ms"]["p50"]
    ann_speedup = round(brute_p50 / max(1e-9, ann["latency_ms"]["p50"]), 2)

    # recall@10: ANN top-10 vs the brute-force top-10, averaged over a
    # deterministic spread of stored key frames used as queries
    frame_ids = system._store.frame_ids()
    n_queries = min(10, len(frame_ids))
    stride = max(1, len(frame_ids) // n_queries)
    recalls = []
    for fid in frame_ids[::stride][:n_queries]:
        probe_image = system.get_key_frame(fid)
        brute = [h.frame_id for h in
                 batched_engine.query_frame(probe_image, top_k=10, use_index=False)]
        approx = [h.frame_id for h in
                  ann_engine.query_frame(probe_image, top_k=10, use_index=False)]
        recalls.append(len(set(brute) & set(approx)) / max(1, len(brute)))
    recall_at_10 = round(float(np.mean(recalls)), 3) if recalls else 1.0

    result["ann_query_frame"] = {
        "ann": ann,
        "speedup_vs_brute": ann_speedup,
        "recall_at_10": recall_at_10,
        "recall_queries": len(recalls),
        "ann_cells": ann_cells,
        "ann_nprobe": ann_nprobe,
        "ann_stats": ann_engine.ann_stats(),
    }
    print(
        f"ann_query_frame  brute p50 {brute_p50:8.1f}ms   "
        f"ann p50 {ann['latency_ms']['p50']:8.1f}ms   "
        f"speedup {ann_speedup:.2f}x   recall@10 {recall_at_10:.3f}"
    )

    # -- query-result cache: repeated identical query ------------------------
    cache_engine = SearchEngine(
        system.config.with_(query_cache_size=256),
        system._store,
        system._index,
    )
    t0 = time.perf_counter()
    cache_engine.query_frame(query_image, top_k=20, use_index=False)
    miss_ms = round((time.perf_counter() - t0) * 1000, 3)
    hit = _timed(
        lambda: cache_engine.query_frame(query_image, top_k=20, use_index=False),
        repeats,
    )
    result["cache_hit"] = {
        "miss_latency_ms": miss_ms,
        "hit": hit,
        "speedup_vs_miss": round(miss_ms / max(1e-9, hit["latency_ms"]["p50"]), 2),
        "cache_stats": cache_engine.cache_stats(),
    }
    print(
        f"cache_hit     miss {miss_ms:8.1f}ms   "
        f"hit p50 {hit['latency_ms']['p50']:8.3f}ms   "
        f"speedup {result['cache_hit']['speedup_vs_miss']:.0f}x"
    )

    # -- observability overhead: instrumented vs the disabled fast path -------
    # ``batched_engine`` carries NULL_OBS (the obs_enabled=false path: one
    # shared no-op object per instrumentation point); ``obs_engine`` records
    # full metrics + traces on every query.  The gate tracks the *disabled*
    # throughput so instrumentation can never tax uninstrumented callers.
    obs_engine = SearchEngine(
        system.config.with_(query_cache_size=0),
        system._store,
        system._index,
        obs=Obs(),
    )
    disabled = _timed(
        lambda: batched_engine.query_frame(query_image, top_k=20, use_index=False),
        repeats,
    )
    enabled = _timed(
        lambda: obs_engine.query_frame(query_image, top_k=20, use_index=False),
        repeats,
    )
    overhead_pct = round(
        (enabled["latency_ms"]["p50"] / max(1e-9, disabled["latency_ms"]["p50"]) - 1.0)
        * 100,
        2,
    )
    result["obs_overhead"] = {
        "disabled": disabled,
        "enabled": enabled,
        "overhead_pct": overhead_pct,
    }
    print(
        f"obs_overhead  disabled p50 {disabled['latency_ms']['p50']:8.1f}ms   "
        f"enabled p50 {enabled['latency_ms']['p50']:8.1f}ms   "
        f"overhead {overhead_pct:+.1f}%"
    )

    # -- cold start: mmap snapshot open vs SQL rebuild ------------------------
    # A fresh process serving its first query either maps the snapshot
    # (snapshot=require: no feature parsing, no SQL scan) or rebuilds the
    # store from KEY_FRAMES (snapshot=off, the pre-snapshot path).  Both
    # open the same durable library and answer the same query.
    with tempfile.TemporaryDirectory() as tmp:
        library = os.path.join(tmp, "bench.rdb")
        cold_corpus = corpus[: min(len(corpus), 8)]
        durable = VideoRetrievalSystem.open(library, SystemConfig(workers=1))
        for video in cold_corpus:
            durable.admin.add_video(video)
        durable.admin.checkpoint()  # folds the DB WAL and writes the snapshot
        durable.close()

        def cold_open(mode: str) -> Callable[[], None]:
            config = SystemConfig(snapshot=mode, query_cache_size=0)

            def run() -> None:
                cold = VideoRetrievalSystem.open(library, config)
                cold.search(query_image, top_k=20, use_index=False)
                cold.close()

            return run

        rebuild = _timed(cold_open("off"), repeats)
        mmap_open = _timed(cold_open("require"), repeats)
    cold_speedup = round(
        rebuild["latency_ms"]["p50"] / max(1e-9, mmap_open["latency_ms"]["p50"]), 2
    )
    result["cold_start"] = {
        "videos": len(cold_corpus),
        "rebuild": rebuild,
        "mmap": mmap_open,
        "speedup_vs_rebuild": cold_speedup,
    }
    print(
        f"cold_start    rebuild p50 {rebuild['latency_ms']['p50']:8.1f}ms   "
        f"mmap p50 {mmap_open['latency_ms']['p50']:8.1f}ms   "
        f"speedup {cold_speedup:.2f}x"
    )

    # -- scatter-gather: 4-shard coordinator vs the single-store engine -------
    # The same scoring-only query (no per-query extraction, cache off)
    # served both ways.  The coordinator's merge is byte-identical to the
    # single-store ranking -- asserted here on the full top-k -- so the
    # row measures pure serving throughput; the hard >=Nx gate with
    # cpu-aware scaling lives in scripts/shard_gate.py.
    from repro.sharding import ShardedSearchEngine, read_manifest, split_store

    with tempfile.TemporaryDirectory() as tmp:
        split_store(system._store, tmp, 4)
        _, shard_paths = read_manifest(tmp)
        sharded_engine = ShardedSearchEngine(
            system.config.with_(query_cache_size=0),
            shard_paths,
        )
        try:
            single_hits = batched_engine.query_with_vectors(query_vectors, top_k=20)
            sharded_hits = sharded_engine.query_with_vectors(query_vectors, top_k=20)
            if [(h.frame_id, h.distance) for h in single_hits] != [
                (h.frame_id, h.distance) for h in sharded_hits
            ]:
                raise AssertionError(
                    "sharded ranking diverged from the single-store ranking"
                )
            single = _timed(
                lambda: batched_engine.query_with_vectors(query_vectors, top_k=20),
                repeats,
            )
            shards4 = _timed(
                lambda: sharded_engine.query_with_vectors(query_vectors, top_k=20),
                repeats,
            )
        finally:
            sharded_engine.close()
    sg_speedup = round(
        single["latency_ms"]["p50"] / max(1e-9, shards4["latency_ms"]["p50"]), 2
    )
    result["scatter_gather"] = {
        "shards": 4,
        "single": single,
        "shards4": shards4,
        "speedup_vs_single": sg_speedup,
        "rankings_identical": True,
    }
    print(
        f"scatter_gather  single p50 {single['latency_ms']['p50']:8.1f}ms   "
        f"4-shard p50 {shards4['latency_ms']['p50']:8.1f}ms   "
        f"speedup {sg_speedup:.2f}x"
    )

    # -- concurrent serving: asyncio front-end, micro-batching on vs off ------
    # Real sockets, fixed concurrent-client count, result cache off so every
    # request does full extraction + scoring.  "unbatched" pins batch_max=1
    # (each request scores alone); "batched" lets the micro-batcher coalesce
    # the concurrent stream into query_batch calls.  Rankings are identical
    # either way (property-tested in tests/serving); this row tracks only
    # sustained throughput.  The SLO/overload gate is scripts/load_gate.py.
    from repro.serving import make_async_server

    serving_clients = 6
    per_client = max(4, repeats * 2)
    system.attach_engine(
        SearchEngine(
            system.config.with_(query_cache_size=0),
            system._store,
            system._index,
        )
    )
    body = query_image.encode("ppm")
    base_config = system.config
    serving: Dict[str, object] = {
        "clients": serving_clients,
        "requests_per_client": per_client,
    }
    try:
        for mode, window_ms, batch_max in (
            ("unbatched", 0.0, 1),
            ("batched", 3.0, 8),
        ):
            # the server reads its batcher knobs from system.config at build
            system.config = base_config.with_(
                batch_window_ms=window_ms, batch_max=batch_max
            )
            server = make_async_server(system)
            try:
                serving[mode] = _serving_drill(
                    server, body, serving_clients, per_client
                )
            finally:
                server.stop()
    finally:
        system.config = base_config
    serving["batch_speedup"] = round(
        serving["batched"]["ops_per_sec"]
        / max(1e-9, serving["unbatched"]["ops_per_sec"]),
        2,
    )
    result["concurrent_serving"] = serving
    print(
        f"concurrent_serving  unbatched {serving['unbatched']['ops_per_sec']:7.1f} ops/s   "
        f"batched {serving['batched']['ops_per_sec']:7.1f} ops/s   "
        f"speedup {serving['batch_speedup']:.2f}x"
    )

    result["ingest"] = ingest
    system.close()
    return result


def _lookup(report: Dict[str, object], path) -> Optional[float]:
    node = report
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def compare_to_baseline(
    report: Dict[str, object], baseline: Dict[str, object], tolerance: float
) -> List[str]:
    """Tracked throughput metrics that regressed beyond ``tolerance``.

    A metric the baseline has but the report lacks counts as a
    regression, so a renamed or dropped row fails the gate instead of
    going quiet.
    """
    regressions = []
    for path in _TRACKED:
        now, then = _lookup(report, path), _lookup(baseline, path)
        if then is None or then <= 0:
            continue
        if now is None:
            regressions.append(
                f"{'.'.join(path)}: present in baseline, missing from run"
            )
            continue
        if now < then * (1.0 - tolerance):
            regressions.append(
                f"{'.'.join(path)}: {now:.2f} ops/s vs baseline {then:.2f} "
                f"(-{(1 - now / then) * 100:.0f}%, tolerance {tolerance * 100:.0f}%)"
            )
    return regressions


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small store / few repeats (CI smoke mode)")
    parser.add_argument("--out", default="BENCH_throughput.json",
                        help="output JSON path (default: %(default)s)")
    parser.add_argument("--videos", type=int, default=None,
                        help="store size (default: 20, quick: 6)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="query repetitions (default: 7, quick: 3)")
    parser.add_argument("--workers", type=int, default=1,
                        help="ingest workers (1 = serial, 0 = auto)")
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--baseline", default=None,
                        help="previous BENCH_throughput.json to compare against")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed fractional ops/sec drop vs baseline "
                             "(default: %(default)s)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when a baseline regression is found")
    args = parser.parse_args(argv)

    n_videos = args.videos if args.videos is not None else (6 if args.quick else 20)
    repeats = args.repeats if args.repeats is not None else (3 if args.quick else 7)
    n_shots = 12 if args.quick else 50
    frames_per_shot = 3

    print(
        f"benchmarking: {n_videos} videos x {n_shots} shots x "
        f"{frames_per_shot} frames, {repeats} repeats"
    )
    report: Dict[str, object] = {
        "schema": "repro-bench-throughput/1",
        "config": {
            "quick": args.quick,
            "videos": n_videos,
            "n_shots": n_shots,
            "frames_per_shot": frames_per_shot,
            "repeats": repeats,
            "workers": args.workers,
            "seed": args.seed,
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
        },
    }
    report.update(
        run_benchmarks(
            n_videos=n_videos,
            n_shots=n_shots,
            frames_per_shot=frames_per_shot,
            repeats=repeats,
            workers=args.workers,
            seed=args.seed,
        )
    )

    exit_code = 0
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        regressions = compare_to_baseline(report, baseline, args.tolerance)
        report["baseline_regressions"] = regressions
        if regressions:
            print("\nbaseline regressions:")
            for line in regressions:
                print(f"  REGRESSION {line}")
            if args.strict:
                exit_code = 1
        else:
            print("\nno baseline regressions")

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
