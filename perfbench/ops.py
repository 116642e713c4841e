"""In-process operations the workloads time, each with its own check.

``Ops`` runs one operation of each query type against a system and
records its wall time under the metric's sample name; every input is a
fresh ``variant`` of a held-out frame or clip, so the result cache never
serves a timed query.  Set-up helpers build a durable library through
the public admin API and read the program's own counters.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from perfbench.inputs import Inputs, variant
from perfbench.stats import reference_seconds
from repro.core.feedback import FeedbackSession
from repro.core.system import VideoRetrievalSystem
from repro.sharding import ShardedSearchEngine, read_manifest, split_store

TOP_K = 20

T = TypeVar("T")


class Tally:
    """Operation counts, failures and latency samples of one pass."""

    def __init__(self) -> None:
        self.attempted = 0
        #: operations that failed: refused, errored or answered wrongly
        self.failed = 0
        #: operations whose answer failed a correctness check
        self.wrong = 0
        #: sample name -> wall seconds per operation
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: failed checks, one line each (printed, capped)
        self.errors: List[str] = []

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; ``ok`` False when it was refused or errored."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def timed(self, series: str, fn: Callable[[], T]) -> T:
        """Run ``fn`` and record its wall seconds under ``series``, then
        one ``reference_seconds`` under ``ref:<series>``."""
        t0 = time.perf_counter()
        result = fn()
        self.samples[series].append(time.perf_counter() - t0)
        self.samples["ref:" + series].append(reference_seconds())
        return result

    def check(self, ok: bool, what: str) -> None:
        """Count one operation whose answer was checked; False = wrong answer."""
        self.op(ok, what)
        self.wrong += not ok

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.errors.extend(other.errors)


def ranking(results) -> List[Tuple[int, float]]:
    return [(h.frame_id, h.distance) for h in results]


def well_formed(distances: Sequence[float]) -> bool:
    """A ranking's distances: at least one, at most ``TOP_K``, ascending."""
    d = list(distances)
    return 0 < len(d) <= TOP_K and all(a <= b for a, b in zip(d, d[1:]))


def precision_at_k(categories: Sequence[str], category: str) -> float:
    """Share of the top-``TOP_K`` hits from the query's category (Table 1)."""
    return sum(1 for c in categories if c == category) / TOP_K


class Ops:
    """One system (plus an optional sharded engine over its store)."""

    def __init__(self, system: VideoRetrievalSystem, inputs: Inputs, seed: int,
                 tally: Tally, sharded: Optional[ShardedSearchEngine] = None):
        self.system = system
        self.inputs = inputs
        self.seed = seed
        self.tally = tally
        self.sharded = sharded
        self._next = 0
        #: ``slot`` calls so far
        self.slots = 0

    def _query(self) -> Tuple[object, str]:
        image, category = self.inputs.queries[self._next % len(self.inputs.queries)]
        self._next += 1
        return variant(image, self.seed, self._next), category

    def frame(self, sample: str = "frame_query"):
        """A solo frame query, then the same input through the shards."""
        image, _category = self._query()
        solo = self.tally.timed(sample, lambda: self.system.search(image, top_k=TOP_K))
        self.tally.check(well_formed(h.distance for h in solo), "frame query: malformed ranking")
        if self.sharded is not None:
            sharded = self.tally.timed(
                "sharded_query", lambda: self.sharded.query_frame(image, top_k=TOP_K))
            self.tally.check(ranking(sharded) == ranking(solo),
                             "sharded query: ranking differs from the solo query")

    def feedback(self) -> None:
        """A relevance-feedback re-rank; the simulated user marks results
        relevant when they share the query's category."""
        image, category = self._query()
        session = FeedbackSession(self.system, image)
        first = session.search(top_k=TOP_K)
        relevant = [h.frame_id for h in first if h.category == category]
        irrelevant = [h.frame_id for h in first if h.category != category]
        if relevant:
            session.mark_relevant(*relevant)
        if irrelevant:
            session.mark_irrelevant(*irrelevant)
        refined = self.tally.timed("feedback_query", lambda: session.refine(top_k=TOP_K))
        self.tally.check(well_formed(h.distance for h in refined) and len(refined) == len(first),
                      "feedback re-rank: malformed ranking")

    def clip(self) -> None:
        """A clip query (key frames, features, sequence alignment)."""
        frames, _category = self.inputs.clips[self._next % len(self.inputs.clips)]
        self._next += 1
        clip = [variant(f, self.seed, self._next * 16 + i) for i, f in enumerate(frames)]
        matches = self.tally.timed("clip_query", lambda: self.system.search_by_video(clip, top_k=10))
        self.tally.check(len(matches) > 0, "clip query: no match")

    def slot(self, sample: str = "frame_query") -> None:
        """Five frame queries (each also sharded), three re-ranks, two clips.

        Workloads whose main loop is not the query loop spread slots over
        their run, so these samples see the host over the whole run, not
        over one burst.
        """
        for _ in range(5):
            self.frame(sample)
        for _ in range(3):
            self.feedback()
        for _ in range(2):
            self.clip()
        self.slots += 1

    def write(self, video, name: str) -> None:
        """Add ``video`` as ``name`` (timed as ``ingest_video``), then delete it."""
        report = self.tally.timed("ingest_video",
                                 lambda: self.system.admin.add_video(video, name=name))
        self.tally.check(report.n_keyframes > 0, f"add_video {name}: no key frames")
        self.system.admin.delete_video(report.video_id)

    def precision(self) -> float:
        """Mean precision@20 over the unmodified held-out query frames."""
        shares = []
        for image, category in self.inputs.queries:
            results = self.system.search(image, top_k=TOP_K)
            self.tally.check(well_formed(h.distance for h in results),
                             "precision probe: malformed ranking")
            shares.append(precision_at_k(results.categories(), category))
        return sum(shares) / len(shares)


def add_videos(system: VideoRetrievalSystem, videos: Sequence, tally: Tally,
               between: Optional[Callable[[], None]] = None) -> float:
    """Add ``videos`` one by one through the admin API, then checkpoint.

    Records each ``add_video`` under ``ingest_video`` and calls
    ``between`` after each one.  Returns the seconds spent adding and
    checkpointing (``between`` excluded).
    """
    busy = 0.0
    for video in videos:
        report = tally.timed("ingest_video", lambda: system.admin.add_video(video))
        busy += tally.samples["ingest_video"][-1]
        tally.check(report.n_keyframes > 0, f"add_video {video.name}: no key frames")
        if between is not None:
            between()
    t0 = time.perf_counter()
    system.admin.checkpoint()
    return busy + time.perf_counter() - t0


def start_sharded(system: VideoRetrievalSystem, shard_dir: str) -> ShardedSearchEngine:
    """Split the system's store into ``min(nproc, 4)`` shards and serve them."""
    n_shards = min(os.cpu_count() or 1, 4)
    split_store(system.feature_store, shard_dir, n_shards)
    _manifest, paths = read_manifest(shard_dir)
    return ShardedSearchEngine(system.config, paths, obs=system.obs, policies=system.resilience)


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def counters(system: VideoRetrievalSystem, engines: Sequence) -> Dict[str, float]:
    """Query-cache and worker-pool counters the program keeps itself."""
    out = {"cache.hits": 0.0, "cache.misses": 0.0, "cache.invalidations": 0.0}
    for engine in [system.engine, *engines]:
        stats = engine.cache_stats()
        for key in ("hits", "misses", "invalidations"):
            out[f"cache.{key}"] += stats[key]
    family = system.obs.registry.render_json().get("repro_pool_fallbacks_total", {})
    out["pool.fallbacks"] = float(sum(s["value"] for s in family.get("samples", [])))
    return out
