"""The layer map: where the traced run wraps the program, and the ledger.

Each wrapper sits where callers look the name up -- a module attribute
imported by name into its caller (``repro.core.ingest.encode_rvf_bytes``)
or a class attribute (``KeyFrameExtractor.extract``) -- so the program
runs unchanged.  ``ledger`` folds the recorded spans and counters into
the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Tuple

from perfbench.tracer import Tracer

#: the six Table 1 features, whose extractors and kernels are traced
FEATURES: Tuple[str, ...] = ("glcm", "gabor", "tamura", "sch", "acc", "regions")


def install(tracer: Tracer) -> None:
    """Wrap every traced layer (in-process and served-child alike)."""
    import repro.core.ingest as core_ingest
    import repro.core.search as core_search
    import repro.core.snapshots as core_snapshots
    import repro.serving.server as serving_server
    import repro.video.motion as video_motion
    from repro.core.ingest import Ingestor
    from repro.core.search import SearchEngine
    from repro.core.store import FeatureStore
    from repro.db.engine import Database
    from repro.features.base import get_extractor
    from repro.indexing.rangefinder import RangeFinder
    from repro.indexing.tree import RangeIndex
    from repro.runtime.pool import PoolTask, WorkerPool
    from repro.serving.admission import AdmissionController
    from repro.serving.batcher import MicroBatcher
    from repro.serving.server import AsyncCbvrServer
    from repro.sharding.coordinator import ShardedSearchEngine
    from repro.similarity.fusion import CombinedScorer
    from repro.snapshot.wal import WalWriter
    from repro.video.keyframes import KeyFrameExtractor
    from repro.web.api import CbvrApi

    counts = tracer.counts

    # -- admin side: video codec, key frames, motion, features, index, pool
    tracer.wrap(core_ingest, "encode_rvf_bytes", "video.codec.encode",
                after=lambda a, r, s: {"codec.in": sum(f.pixels.nbytes for f in a[0]),
                                       "codec.out": len(r)})
    tracer.wrap(KeyFrameExtractor, "extract", "video.keyframes.extract",
                after=lambda a, r, s: {"keyframes.in": len(a[1]), "keyframes.out": len(r)})
    tracer.wrap(video_motion, "motion_activity", "video.motion.activity")
    for feature in FEATURES:
        cls = type(get_extractor(feature))
        tracer.wrap(cls, "extract", f"features.{feature}.extract")
        tracer.wrap(cls, "batch_distance_prepared", f"similarity.kernel.{feature}",
                    after=lambda a, r, s: {"kernel.rows": len(r)})
    tracer.wrap(RangeFinder, "bucket_for_image", "indexing.rangefinder.bucket")
    tracer.wrap(RangeIndex, "candidates", "indexing.tree.candidates",
                after=lambda a, r, s: {"tree.out": len(r), "tree.in": len(a[0])})
    tracer.wrap(WorkerPool, "map", "runtime.pool.map")
    tracer.wrap(Ingestor, "add_video", "core.ingest")

    # -- storage: SQL engine, RSNAP1 snapshot + WAL, feature store
    tracer.wrap(Database, "execute", "db.execute")
    tracer.wrap(Database, "commit", "db.commit")
    tracer.wrap(WalWriter, "append", "snapshot.wal_append")

    def wal_grown(size_before, args, result):
        counts["wal.bytes"] += os.path.getsize(args[0].path) - size_before

    tracer.hook(WalWriter, "append", lambda a: os.path.getsize(a[0].path), wal_grown)
    tracer.wrap(core_snapshots, "write_snapshot", "snapshot.write",
                after=lambda a, r, s: {"snapshot.bytes": os.path.getsize(a[0])})
    tracer.wrap(FeatureStore, "add", "core.store.add")

    # a prepared stack is rebuilt when the store hands out a new array
    last_prepared: Dict[Tuple[int, str], int] = {}

    def prepared(args, result, seconds):
        key = (id(args[0]), args[1])
        rebuilt = last_prepared.get(key) != id(result)
        last_prepared[key] = id(result)
        return {"prepared.rebuilds": 1 if rebuilt else 0}

    tracer.wrap(FeatureStore, "prepared_matrix", "core.store.prepared_matrix", after=prepared)

    # -- query side: engine entry points, fusion, sequence alignment
    def engine_span(self, *args, **kwargs) -> str:
        return "sharding.coordinator" if isinstance(self, ShardedSearchEngine) else "core.search"

    for entry in ("query_frame", "query_video", "query_with_vectors", "query_batch"):
        tracer.wrap(SearchEngine, entry, engine_span)
    tracer.wrap(CombinedScorer, "fuse", "similarity.fusion.fuse")
    for fn in ("dtw_distance", "sequence_similarity"):
        tracer.wrap(core_search, fn, "similarity.dp")

    # -- sharding: a scatter span runs from submit to its gathered result
    pending: Dict[int, tuple] = {}

    def submitted(started, args, task):
        pending[id(task)] = started
        counts["shard.dispatches"] += 1

    def gathered(_token, args, result):
        started = pending.pop(id(args[0]), None)
        if started is not None:
            parent, t0 = started
            tracer.record("sharding.scatter_wait", t0, time.perf_counter(), parent)

    tracer.hook(WorkerPool, "submit", lambda a: (Tracer.current(), time.perf_counter()),
                submitted)
    tracer.hook(PoolTask, "result", lambda a: None, gathered)

    # -- serving front-end and HTTP API (inside the served child); every
    # request of a batch waits for the whole batch
    tracer.wrap(MicroBatcher, "_scored_batch", "serving.query_batch",
                after=lambda a, r, s: {"serving.batched": len(a[1]),
                                       "serving.batched_s": s * len(a[1])})
    tracer.wrap(AsyncCbvrServer, "_handle_search", "serving.request")

    def admitting(args):
        counts["admission.calls"] += 1

    def admitted(_token, args, result):
        counts["admission.returned"] += 1
        counts["admission.degraded"] += result is not None

    # a shed request raises OverloadedError, so it never reaches ``admitted``
    tracer.hook(AdmissionController, "admit", admitting, admitted)
    tracer.wrap(serving_server, "parse_search_request", "web.parse_search")
    tracer.wrap(CbvrApi, "_admin_add", "web.admin")
    tracer.wrap(CbvrApi, "_admin_delete", "web.admin")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def ledger(tracer: Tracer, extra: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from ``tracer`` plus counters read from the program.

    ``extra`` carries what the workload measured outside the spans: the
    query cache's hit/miss/invalidation deltas, the pool fallback count,
    the load generator's numbers and the tracing overhead.  Missing
    values read 0: the layer did no work on this workload.
    """
    c = tracer.counts
    m: Dict[str, Tuple[float, str]] = {
        "video.codec.encode.s": (tracer.busy("video.codec.encode"), "s"),
        "video.codec.out_per_in_bytes": (_ratio(c["codec.out"], c["codec.in"]), "ratio"),
        "video.keyframes.extract.s": (tracer.busy("video.keyframes.extract"), "s"),
        "video.keyframes.kf_per_frame": (_ratio(c["keyframes.out"], c["keyframes.in"]), "ratio"),
        "video.motion.activity.s": (tracer.busy("video.motion.activity"), "s"),
    }
    for feature in FEATURES:
        span = f"features.{feature}.extract"
        m[f"{span}.s"] = (tracer.busy(span), "s")
        m[f"{span}.calls"] = (tracer.calls(span), "count")
    m.update({
        "indexing.rangefinder.bucket.s": (tracer.busy("indexing.rangefinder.bucket"), "s"),
        "indexing.tree.candidates.s": (tracer.busy("indexing.tree.candidates"), "s"),
        "indexing.tree.candidate_share": (_ratio(c["tree.out"], c["tree.in"]), "ratio"),
        "runtime.pool.map.s": (tracer.busy("runtime.pool.map"), "s"),
        "runtime.pool.fallbacks": (extra.get("pool.fallbacks", 0.0), "count"),
        "db.execute.s": (tracer.busy("db.execute"), "s"),
        "db.execute.calls": (tracer.calls("db.execute"), "count"),
        "db.commit.s": (tracer.busy("db.commit"), "s"),
        "snapshot.wal_append.s": (tracer.busy("snapshot.wal_append"), "s"),
        "snapshot.wal_bytes": (c["wal.bytes"], "bytes"),
        "snapshot.write.s": (tracer.busy("snapshot.write"), "s"),
        "snapshot.bytes_written": (c["snapshot.bytes"], "bytes"),
        "core.store.add.s": (tracer.busy("core.store.add"), "s"),
        "core.store.prepared_matrix.s": (tracer.busy("core.store.prepared_matrix"), "s"),
        "core.store.prepared_rebuilds": (c["prepared.rebuilds"], "count"),
    })
    for feature in FEATURES:
        m[f"similarity.kernel.{feature}.s"] = (tracer.busy(f"similarity.kernel.{feature}"), "s")
    hits, misses = extra.get("cache.hits", 0.0), extra.get("cache.misses", 0.0)
    batches = tracer.calls("serving.query_batch")
    requests = tracer.calls("serving.request")
    m.update({
        "similarity.kernel.rows_scored": (c["kernel.rows"], "count"),
        "similarity.fusion.fuse.s": (tracer.busy("similarity.fusion.fuse"), "s"),
        "similarity.dp.s": (tracer.busy("similarity.dp"), "s"),
        "similarity.dp.calls": (tracer.calls("similarity.dp"), "count"),
        "core.search.self.s": (tracer.self_time("core.search"), "s"),
        "core.cache.hits": (hits, "count"),
        "core.cache.misses": (misses, "count"),
        "core.cache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "core.cache.invalidations": (extra.get("cache.invalidations", 0.0), "count"),
        "sharding.dispatches": (c["shard.dispatches"], "count"),
        "sharding.scatter_wait.s": (tracer.busy("sharding.scatter_wait"), "s"),
        "sharding.coordinator_self.s": (tracer.self_time("sharding.coordinator"), "s"),
        "serving.query_batch.s": (tracer.busy("serving.query_batch"), "s"),
        "serving.batch_size": (_ratio(c["serving.batched"], batches), "requests"),
        "serving.queue_wait.s": (
            max(0.0, tracer.busy("serving.request") - c["serving.batched_s"]), "s"),
        "serving.requests": (requests, "count"),
        "serving.admission.degraded": (c["admission.degraded"], "count"),
        "serving.admission.shed": (c["admission.calls"] - c["admission.returned"], "count"),
        "web.parse_search.s": (tracer.busy("web.parse_search"), "s"),
        "web.admin.s": (tracer.busy("web.admin"), "s"),
        "core.ingest.self.s": (tracer.self_time("core.ingest"), "s"),
        "loadgen.lateness_ms_tail": (extra.get("loadgen.lateness_ms_tail", 0.0), "ms"),
        "loadgen.max_valid_rate": (extra.get("loadgen.max_valid_rate", 0.0), "1/s"),
        "loadgen.upload_ms_p50": (extra.get("loadgen.upload_ms_p50", 0.0), "ms"),
        "trace.overhead_share": (extra.get("trace.overhead_share", 0.0), "share"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.ops": (tracer.ops(), "count"),
    })
    return m
