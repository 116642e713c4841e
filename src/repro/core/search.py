"""The user-side search engine (the right half of the Fig. 3 DFD).

Frame queries: extract the query frame's features, prune candidates with
the range index, compute per-feature distances, min-max normalize each
feature over the candidate set, and rank by the weighted sum (§5's
"combined" approach) or by one feature alone (the individual Table 1
columns).

Video queries: key-frame the query clip and align its feature sequence
against every stored video's sequence with the paper's dynamic-programming
similarity.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cache import QueryCache, digest_array, digest_vectors
from repro.core.config import SystemConfig
from repro.core.results import RetrievalResult, SearchResults
from repro.core.store import FeatureStore, FrameRecord
from repro.features.base import FeatureExtractor, FeatureVector, get_extractor
from repro.imaging.image import Image
from repro.indexing import ann as ann_metrics
from repro.indexing.ann import IVFIndex
from repro.indexing.tree import RangeIndex
from repro.obs import NULL_OBS, Obs, log
from repro.resilience import (
    NULL_POLICIES,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    ResiliencePolicies,
    armed_deadline,
)
from repro.runtime import WorkerPool, resolve_workers
from repro.similarity.dp import dtw_distance, sequence_similarity
from repro.similarity.fusion import CombinedScorer, FeatureWeights, normalize_scores
from repro.video.generator import SyntheticVideo
from repro.video.keyframes import KeyFrameExtractor

__all__ = ["QueryRequest", "SearchEngine", "VideoMatch"]

#: histogram edges for candidate-set sizes (counts, not seconds)
_COUNT_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0, 4096.0,
    16384.0, 65536.0,
)

#: histogram edges for the range-index pruning ratio (fraction in [0, 1])
_RATIO_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)


def _extract_query_features(
    frame: Image,
    extractors: Dict[str, FeatureExtractor],
    names: Sequence[str],
) -> Dict[str, FeatureVector]:
    """One query key frame's feature vectors (worker-process safe)."""
    return {name: extractors[name].extract(frame) for name in names}


def _stable_topk(fused: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest values, in stable-argsort order.

    Exactly equivalent to ``np.argsort(fused, kind="stable")[:k]`` (ties
    broken by original position, including at the selection boundary) but
    O(n + k log k) instead of O(n log n): an ``argpartition`` narrows to k
    candidates, a boundary-tie repair keeps the lowest-index tied entries,
    and a lexsort orders the survivors.
    """
    n = fused.size
    k = max(0, min(k, n))
    if k == 0:
        return np.empty(0, dtype=np.intp)
    if k >= n:
        return np.lexsort((np.arange(n), fused))
    sel = np.argpartition(fused, k - 1)[:k]
    boundary = fused[sel].max()
    tied_selected = int(np.count_nonzero(fused[sel] == boundary))
    tied_total = int(np.count_nonzero(fused == boundary))
    if tied_total > tied_selected:
        # argpartition picked an arbitrary subset of the boundary ties;
        # stable order wants the lowest original indices
        strictly = np.nonzero(fused < boundary)[0]
        tied = np.nonzero(fused == boundary)[0][: k - strictly.size]
        sel = np.concatenate([strictly, tied])
    return sel[np.lexsort((sel, fused[sel]))]


@dataclass
class QueryRequest:
    """One query of a :meth:`SearchEngine.query_batch` call.

    Exactly one of ``image`` (a frame query) or ``query_vectors`` (a
    precomputed-vector query, the feedback loop's shape) must be set.
    ``deadline`` is an *already ticking* budget -- the serving layer
    creates it at admission time so queue wait counts -- armed around the
    request's per-request stages.  ``nprobe`` overrides ``ann_nprobe``
    for this request only (the admission controller's degrade ladder).
    """

    image: Optional[Image] = None
    query_vectors: Optional[Dict[str, FeatureVector]] = None
    features: Optional[Sequence[str]] = None
    top_k: int = 20
    use_index: Optional[bool] = None
    candidate_ids: Optional[Sequence[int]] = None
    weights: Optional[Dict[str, float]] = None
    deadline: Optional[Deadline] = None
    nprobe: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.image is None) == (self.query_vectors is None):
            raise ValueError("exactly one of image / query_vectors is required")

    @property
    def kind(self) -> str:
        return "frame" if self.image is not None else "vectors"


@dataclass
class _QueryPlan:
    """One request's resolved scoring work, between plan and rank.

    :meth:`SearchEngine._plan_vectors` resolves candidates into a plan,
    :meth:`SearchEngine._score_plan` turns it into raw per-feature
    distances, :meth:`SearchEngine._rank_plan` fuses and ranks.  The
    split exists so :meth:`SearchEngine.query_batch` can run several
    plans through one scoring pass (one scatter per shard for the
    sharded engine) while keeping every per-query kernel call identical
    to serial execution.  The sharded coordinator reuses the
    same carrier with its own fields (``candidate_arr`` .. ``merge_t0``).
    """

    query_vectors: Dict[str, FeatureVector]
    names: List[str]
    top_k: int
    weights: Optional[Dict[str, float]]
    n_total: int = 0
    explain: Optional[Dict[str, object]] = None
    #: early result for an empty candidate set (skips score/rank)
    empty: Optional[SearchResults] = None
    # single-store scoring state
    candidate_ids: Optional[List[int]] = None
    full_store: bool = False
    #: candidate rows of the stacks (None = every row, in id order)
    rows: Optional[np.ndarray] = None
    #: per-feature prepared full stacks taken under the store lock,
    #: gathered by ``rows`` at scoring
    stacks: Optional[Dict[str, np.ndarray]] = None
    #: the store's record mapping as of the plan (ranking reads it)
    frames: Optional[Mapping[int, FrameRecord]] = None
    distance_ms: Optional[Dict[str, float]] = None
    # sharded scoring state (ShardedSearchEngine only)
    candidate_arr: Optional[np.ndarray] = None
    positions: Optional[Dict[int, np.ndarray]] = None
    payloads: Optional[List[Tuple[int, tuple]]] = None
    degraded_shards: List[int] = field(default_factory=list)
    shard_meta: Optional[Dict[int, Dict[str, object]]] = None
    merge_t0: float = 0.0


@dataclass
class _BatchEntry:
    """One :meth:`SearchEngine.query_batch` request's in-flight state."""

    index: int = -1
    #: resolved before scoring (cache hit / empty candidate set)
    results: Optional[SearchResults] = None
    plan: Optional[_QueryPlan] = None
    #: "bypass"/"off" when the vectors-level cache is not consulted
    cache_mode: Optional[str] = None
    #: vectors-level cache key (None = no put on finish)
    key: Optional[tuple] = None
    generation: int = 0
    #: frame-level wrapper state (None for vector queries)
    frame: Optional[Dict[str, object]] = None


class VideoMatch:
    """One hit of a video-to-video query."""

    def __init__(self, video_id: int, video_name: str, category: Optional[str], distance: float):
        self.video_id = video_id
        self.video_name = video_name
        self.category = category
        self.distance = distance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VideoMatch({self.video_name}, d={self.distance:.4f})"


class SearchEngine:
    """Query execution over a feature store + range index."""

    def __init__(
        self,
        config: SystemConfig,
        store: FeatureStore,
        index: RangeIndex,
        pool: Optional[WorkerPool] = None,
        obs: Obs = NULL_OBS,
        policies: ResiliencePolicies = NULL_POLICIES,
    ):
        self.config = config
        self.store = store
        self.index = index
        self._policies = policies
        self.extractors: Dict[str, FeatureExtractor] = {
            name: get_extractor(name) for name in config.features
        }
        self.keyframe_extractor = KeyFrameExtractor(
            threshold=config.keyframe_threshold,
            base_size=config.keyframe_base_size,
        )
        self._pool = pool or WorkerPool(workers=resolve_workers(config.workers))
        #: IVF candidate index (None when ``config.ann`` is off); trained
        #: lazily on the first probe and self-synced against the store
        if config.ann:
            self.ann: Optional[IVFIndex] = IVFIndex(
                store, config.features, n_cells=config.ann_cells, obs=obs
            )
        else:
            self.ann = None
            ann_metrics.register_metrics(obs)  # families scrape at zero
        self._query_cache = QueryCache(config.query_cache_size, obs=obs)
        self._obs = obs
        self._log = log.get_logger(__name__)
        self._m_queries = obs.counter(
            "repro_search_queries_total",
            "Queries executed, by entry point.",
            labelnames=("kind",),
        )
        self._m_query_seconds = obs.histogram(
            "repro_search_seconds",
            "End-to-end query wall time (cache hits included).",
            labelnames=("kind",),
            buckets=obs.latency_buckets,
        )
        self._m_candidates = obs.histogram(
            "repro_search_candidates",
            "Candidates re-ranked per frame/vector query.",
            buckets=_COUNT_BUCKETS,
        )
        self._m_pruning = obs.histogram(
            "repro_search_pruning_ratio",
            "Fraction of the store pruned by the range index before ranking.",
            buckets=_RATIO_BUCKETS,
        )
        self._m_distance_seconds = obs.histogram(
            "repro_search_distance_seconds",
            "Per-feature distance computation time per ranked query.",
            labelnames=("feature",),
        )
        self._m_fusion_seconds = obs.histogram(
            "repro_search_fusion_seconds",
            "Weighted multi-feature fusion time per ranked query.",
        )
    def _prepared_matrix(self, name: str) -> np.ndarray:
        """The feature's prepared full stack, rebuilt when frames change.

        Delegates to :meth:`FeatureStore.prepared_matrix`: the store owns
        the one ``structure_generation``-keyed copy, so engines sharing a
        store share the stack and invalidation can't skew between the
        query cache, the ANN sync, and this cache.
        """
        return self.store.prepared_matrix(name, self.extractors[name])

    def close(self) -> None:
        """Tear down the worker pool (no-op for serial configurations)."""
        self._pool.close()

    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss/invalidation counters of the query-result cache."""
        return self._query_cache.stats()

    def ann_stats(self) -> Optional[Dict[str, int]]:
        """Build/probe counters of the IVF index (None when disabled)."""
        return self.ann.stats.as_dict() if self.ann is not None else None

    def _copy_results(self, results: SearchResults, cache: str) -> SearchResults:
        """Fresh wrapper + per-hit dict copies, so callers can't mutate a
        cached entry through the returned object."""
        hits = [replace(h, per_feature=dict(h.per_feature)) for h in results.hits]
        explain = copy.deepcopy(results.explain)
        if explain is not None:
            explain["cache"] = cache
        return SearchResults(
            hits,
            n_candidates=results.n_candidates,
            n_total=results.n_total,
            degraded=results.degraded,
            degraded_features=list(results.degraded_features),
            degraded_shards=list(results.degraded_shards),
            explain=explain,
        )

    def _cached_results(self, key, builder) -> SearchResults:
        """Run ``builder`` through the query cache (generation-checked)."""
        if not self._query_cache.enabled:
            return builder()
        generation = self.store.generation
        results = self._query_cache.get(key, generation)
        hit = results is not None
        if not hit:
            results = builder()
            self._query_cache.put(key, generation, results)
        return self._copy_results(results, "hit" if hit else "miss")

    def _record_query(
        self,
        kind: str,
        t0: float,
        candidates: Optional[int] = None,
        results: Optional[SearchResults] = None,
        span: Optional[object] = None,
    ) -> None:
        """Per-query bookkeeping shared by the three public entry points."""
        elapsed = time.perf_counter() - t0
        ms = elapsed * 1000.0
        explain = results.explain if results is not None else None
        if explain is not None:
            explain["total_ms"] = round(ms, 3)
        self._m_queries.labels(kind=kind).inc()
        self._m_query_seconds.labels(kind=kind).observe(elapsed)
        if candidates is not None:
            self._m_candidates.observe(candidates)
        # one float compare on the fast path: the disabled slow log
        # advertises an infinite threshold
        if ms >= self._obs.slow_log.threshold_ms:
            self._obs.slow_log.record(
                ms,
                kind=kind,
                trace_id=getattr(span, "trace_id", None),
                candidates=candidates,
                degraded=results.degraded if results is not None else None,
                explain=copy.deepcopy(explain),
            )
        self._log.debug(
            "search.query",
            kind=kind,
            ms=round(ms, 2),
            candidates=candidates,
        )

    # -- frame query ------------------------------------------------------------

    def query_frame(
        self,
        image: Image,
        features: Optional[Sequence[str]] = None,
        top_k: int = 20,
        use_index: Optional[bool] = None,
    ) -> SearchResults:
        """Rank stored key frames against a query frame.

        ``features`` selects the ranking signal: a single name ranks by that
        feature alone; several (or None = all configured) are fused with the
        configured weights.
        """
        names = self._resolve_features(features)
        use_index = self.config.use_index if use_index is None else use_index
        t0 = time.perf_counter()
        with self._policies.request_scope(), self._obs.span(
            "search.query_frame", features=",".join(names), top_k=top_k
        ) as span:
            # with faults armed, a cached answer could outlive the chaos
            # run (or hide it), so chaos queries bypass the result cache
            if not self._query_cache.enabled or self._policies.faults.armed:
                results = self._query_frame(image, names, top_k, use_index)
                if results.explain is not None:
                    results.explain["cache"] = (
                        "bypass" if self._policies.faults.armed else "off"
                    )
            else:  # don't pay the pixel digest when the cache is off
                key = (
                    "frame", digest_array(image.pixels), tuple(names), top_k, use_index
                )
                results = self._cached_results(
                    key, lambda: self._query_frame(image, names, top_k, use_index)
                )
            span.annotate(candidates=results.n_candidates)
        self._record_query("frame", t0, results.n_candidates, results, span)
        return results

    def _query_frame(
        self, image: Image, names: List[str], top_k: int, use_index: bool
    ) -> SearchResults:
        self._policies.check_stage("search.extract")
        with self._obs.span("search.extract"):
            query_vectors, degraded = self._extract_degradable(image, names)
        with self.store.lock:
            candidate_ids, ann_probed = self._frame_candidates(
                image, query_vectors, use_index, None
            )
            entry = self._prepare_vectors_entry(query_vectors, top_k, candidate_ids, None)
        results = self._finish_entry(entry)
        if degraded:
            results.degraded = True
            results.degraded_features = degraded
        explain = results.explain
        if explain is not None:
            explain["kind"] = "frame"
            explain["index"] = {
                "used": bool(use_index),
                "pruning_ratio": round(results.pruning_fraction, 6),
            }
            if ann_probed is not None:  # the frame-level probe decided
                explain["ann"] = {"enabled": True, "probed": ann_probed}
            if degraded:
                explain["degraded_features"] = list(degraded)
        return results

    def _frame_candidates(
        self,
        image: Image,
        query_vectors: Dict[str, FeatureVector],
        use_index: bool,
        nprobe: Optional[int],
    ) -> tuple:
        """``(candidate_ids, ann_probed)`` for a frame query.

        Callers hold the store lock from here until the plan is made, so
        the candidates and the stacks they index agree.
        """
        self._policies.check_stage("search.prune")
        if not use_index:
            return None, None  # the whole store (or the plan's ANN probe)
        with self._obs.span("search.index.prune"):
            candidate_ids = sorted(self.index.candidates(image))
        n_total = len(self.store)
        if n_total:
            self._m_pruning.observe(1.0 - len(candidate_ids) / n_total)
        if self.ann is None:
            return candidate_ids, None
        # compose with the range index: a frame must survive both
        with self._obs.span("search.ann.probe"):
            ann_ids = self._ann_probe(query_vectors, nprobe)
        if ann_ids is None:
            return candidate_ids, False
        wanted = set(ann_ids)
        return [fid for fid in candidate_ids if fid in wanted], True

    def _extract_degradable(
        self, image: Image, names: List[str]
    ) -> tuple:
        """Query-feature extraction with per-extractor graceful degradation.

        A failing (or fault-injected) extractor is skipped and recorded;
        the survivors' fusion weights renormalize downstream, so the
        degraded ranking is exactly the ranking the surviving feature
        subset would produce on its own.  Only when *every* extractor
        fails does the query error out.
        """
        query_vectors: Dict[str, FeatureVector] = {}
        degraded: List[str] = []
        last_error: Optional[Exception] = None
        for name in names:
            try:
                self._policies.fire(f"extractor.{name}")
                query_vectors[name] = self.extractors[name].extract(image)
            except DeadlineExceeded:
                raise
            except Exception as exc:
                last_error = exc
                degraded.append(name)
                self._policies.note_degraded(f"extractor.{name}")
                self._log.warning(
                    "search.extractor_degraded",
                    feature=name,
                    error=f"{type(exc).__name__}: {exc}",
                )
        if not query_vectors:
            raise last_error  # nothing survived: degradation is impossible
        return query_vectors, degraded

    def _ann_probe(
        self,
        query_vectors: Dict[str, FeatureVector],
        nprobe: Optional[int] = None,
    ):
        """IVF probe through the ANN circuit breaker.

        Returns the candidate ids, or None for the exact brute-force
        fallback -- taken when the breaker is open or the probe fails
        (the failure feeds the breaker's window).  ``nprobe`` overrides
        ``config.ann_nprobe`` (the serving degrade ladder widens recall
        back out once pressure drops).
        """
        if self.ann is None:
            return None
        if nprobe is None:
            nprobe = self.config.ann_nprobe
        nprobe = max(1, min(int(nprobe), self.config.ann_cells))
        if not self._policies.enabled:
            return self.ann.probe(query_vectors, nprobe)
        breaker = self._policies.ann_breaker
        try:
            breaker.guard()
            self._policies.fire("ann.probe")
            ids = self.ann.probe(query_vectors, nprobe)
        except CircuitOpenError:
            self._policies.note_fallback("ann_brute_force")
            self._log.warning("search.ann_breaker_open", fallback="brute_force")
            return None
        except DeadlineExceeded:
            raise
        except Exception as exc:
            breaker.record_failure()
            self._policies.note_fallback("ann_brute_force")
            self._log.warning(
                "search.ann_probe_failed",
                error=f"{type(exc).__name__}: {exc}",
                fallback="brute_force",
            )
            return None
        breaker.record_success()
        return ids

    def query_with_vectors(
        self,
        query_vectors: Dict[str, FeatureVector],
        top_k: int = 20,
        candidate_ids: Optional[Sequence[int]] = None,
        weights: Optional[Dict[str, float]] = None,
    ) -> SearchResults:
        """Rank stored frames against precomputed query feature vectors.

        This is the feedback loop's entry point: relevance feedback moves
        the query vectors and reweights features, then re-ranks without
        needing an actual query image.  ``weights`` overrides the
        configuration's fusion weights; ``candidate_ids`` defaults to the
        whole store (no index pruning -- a moved query vector has no image
        to bucket).
        """
        t0 = time.perf_counter()
        with self._policies.request_scope(), self._obs.span(
            "search.query_vectors", top_k=top_k
        ) as span:
            results = self._finish_entry(
                self._prepare_vectors_entry(query_vectors, top_k, candidate_ids, weights)
            )
            span.annotate(candidates=results.n_candidates)
        self._record_query("vectors", t0, results.n_candidates, results, span)
        return results

    def _vectors_key(
        self,
        query_vectors: Dict[str, FeatureVector],
        names: List[str],
        top_k: int,
        candidate_ids: Optional[Sequence[int]],
        weights: Optional[Dict[str, float]],
        nprobe: Optional[int] = None,
    ) -> tuple:
        """The vectors-level query-cache key (shared serial / batched)."""
        key = (
            "vectors",
            digest_vectors({n: query_vectors[n] for n in names}),
            tuple(names),
            top_k,
            None
            if weights is None
            else tuple(sorted((str(n), float(w)) for n, w in weights.items())),
            None
            if candidate_ids is None
            else digest_array(np.asarray(candidate_ids, dtype=np.int64)),
        )
        # an nprobe override (the serving degrade ladder) computes a
        # different candidate set; only then does it widen the key
        if nprobe is not None:
            key = key + (("nprobe", int(nprobe)),)
        return key

    def _finish_entry(self, entry: _BatchEntry) -> SearchResults:
        """Score and rank a prepared entry (outside the store lock)."""
        if entry.results is not None:
            return entry.results
        return self._finish_batch_request(entry, self._score_plan(entry.plan))

    def _plan_vectors(
        self,
        query_vectors: Dict[str, FeatureVector],
        names: List[str],
        top_k: int,
        candidate_ids: Optional[Sequence[int]],
        weights: Optional[Dict[str, float]],
        nprobe: Optional[int] = None,
    ) -> _QueryPlan:
        """Resolve candidates into a :class:`_QueryPlan`.

        Every store read a query makes happens here, under the store lock:
        the plan carries the rows, stacks and records that scoring and
        ranking use afterwards, so a concurrent add or delete cannot skew
        them.
        """
        self._policies.check_stage("search.score")
        with self.store.lock:
            full_store = False
            ann_probed = False
            if candidate_ids is None:
                if self.ann is not None:
                    candidate_ids = self._ann_probe(query_vectors, nprobe)
                    ann_probed = candidate_ids is not None
                if candidate_ids is None:
                    candidate_ids = self.store.frame_ids()
                    full_store = True
            else:
                candidate_ids = list(candidate_ids)
            n_total = len(self.store)
            explain: Dict[str, object] = {
                "kind": "vectors",
                "features": list(names),
                "top_k": int(top_k),
                "n_total": n_total,
                "n_candidates": len(candidate_ids),
                "ann": {"enabled": self.ann is not None, "probed": ann_probed},
            }
            plan = _QueryPlan(
                query_vectors=query_vectors,
                names=list(names),
                top_k=int(top_k),
                weights=weights,
                n_total=n_total,
                explain=explain,
                candidate_ids=candidate_ids,
                full_store=full_store,
            )
            if not candidate_ids:
                plan.empty = SearchResults(
                    [], n_candidates=0, n_total=n_total, explain=explain
                )
                return plan
            plan.frames = self.store.records()
            # one binary search maps candidate ids to stack rows for every
            # feature (preparation commutes with row gathers)
            if not full_store:
                plan.rows = self.store.matrix_rows(candidate_ids)
            plan.stacks = {name: self._prepared_matrix(name) for name in names}
            return plan

    def _score_plan(self, plan: _QueryPlan) -> Dict[str, np.ndarray]:
        """Raw per-feature distances over the plan's candidate set.

        Each feature is one ``batch_distance_prepared`` call over the
        store's prepared stack, so serial and batched executions of the
        same query score byte-for-byte the same arrays.
        """
        per_feature: Dict[str, np.ndarray] = {}
        distance_ms: Dict[str, float] = {}
        for name in plan.names:
            t_dist = time.perf_counter()
            # the id-sorted prepared stack is cached per generation; only
            # subsets pay a gather
            prepared = plan.stacks[name]
            if plan.rows is not None:
                prepared = prepared[plan.rows]
            per_feature[name] = self.extractors[name].batch_distance_prepared(
                plan.query_vectors[name], prepared
            )
            dt = time.perf_counter() - t_dist
            distance_ms[name] = round(dt * 1000.0, 3)
            self._m_distance_seconds.labels(feature=name).observe(dt)
        plan.distance_ms = distance_ms
        return per_feature

    def _score_plans(self, plans: Sequence[_QueryPlan]) -> List[object]:
        """Score several plans; per-plan exceptions are captured in place.

        The base engine loops :meth:`_score_plan` (the per-query kernels
        already share the generation-cached prepared stacks, so the batch
        win here is amortized per-request overhead); the sharded engine
        overrides this with one scatter per shard covering every plan.
        One poisoned plan must not fail its batchmates: its slot holds
        the exception instead of a distance dict.
        """
        out: List[object] = []
        for plan in plans:
            try:
                out.append(self._score_plan(plan))
            except Exception as exc:  # noqa: BLE001 - isolation by contract
                out.append(exc)
        return out

    def _rank_plan(
        self, plan: _QueryPlan, per_feature: Dict[str, np.ndarray]
    ) -> SearchResults:
        """Fusion + stable top-k over the plan's scored distances."""
        names = plan.names
        weights = plan.weights
        t_fuse = time.perf_counter()
        if len(names) == 1:
            fused = np.asarray(per_feature[names[0]], dtype=np.float64)
        else:
            if weights is None:
                weights = {n: self.config.weight_of(n) for n in names}
            fused = CombinedScorer(FeatureWeights(weights)).fuse(per_feature)
        t_fuse = time.perf_counter() - t_fuse
        plan.explain["timings_ms"] = {
            "distance": plan.distance_ms,
            "fusion": round(t_fuse * 1000.0, 3),
        }
        self._m_fusion_seconds.observe(t_fuse)

        hits = []
        for i in _stable_topk(fused, max(0, plan.top_k)):
            record = plan.frames[plan.candidate_ids[i]]
            hits.append(
                RetrievalResult(
                    frame_id=record.frame_id,
                    video_id=record.video_id,
                    video_name=record.video_name,
                    frame_name=record.frame_name,
                    category=record.category,
                    distance=float(fused[i]),
                    per_feature={n: float(per_feature[n][i]) for n in names},
                )
            )
        return SearchResults(
            hits,
            n_candidates=len(plan.candidate_ids),
            n_total=plan.n_total,
            explain=plan.explain,
        )

    # -- micro-batched execution -------------------------------------------------

    def query_batch(self, requests: Sequence[QueryRequest]) -> List[object]:
        """Execute several frame/vector queries as one micro-batch.

        Returns a list aligned with ``requests`` whose elements are
        either :class:`SearchResults` or the exception that request
        raised: exceptions are isolated per request, so a poisoned query
        never fails its batchmates.  Rankings are byte-identical to
        running each request through :meth:`query_frame` /
        :meth:`query_with_vectors` serially -- the batch amortizes
        per-request overhead (and the sharded engine's per-shard IPC,
        one scatter per shard per batch) but every per-query distance
        kernel runs with identical inputs, never a stacked multi-query
        kernel whose float reduction order could drift.

        Each request's ``deadline`` (if any) is armed around its
        per-request stages -- cache lookup, pruning, extraction,
        ranking; the shared scoring pass checks each deadline
        immediately before scoring and expires overrun requests without
        dispatching them.
        """
        outcomes: List[object] = [None] * len(requests)
        t0 = time.perf_counter()
        with self._obs.span("search.query_batch", size=len(requests)) as span:
            pending: List[_BatchEntry] = []
            for i, req in enumerate(requests):
                try:
                    with armed_deadline(req.deadline), self._policies.request_scope():
                        self._policies.fire("serving.request")
                        entry = self._prepare_batch_request(req)
                except Exception as exc:  # per-request isolation by contract
                    outcomes[i] = exc
                    continue
                entry.index = i
                if entry.results is not None:
                    outcomes[i] = entry.results
                else:
                    pending.append(entry)
            to_score: List[_BatchEntry] = []
            for entry in pending:
                deadline = requests[entry.index].deadline
                if deadline is not None:
                    try:
                        deadline.check("search.batch_score")
                    except DeadlineExceeded as exc:
                        outcomes[entry.index] = exc
                        continue
                to_score.append(entry)
            scored = self._score_plans([e.plan for e in to_score]) if to_score else []
            for entry, per_feature in zip(to_score, scored):
                if isinstance(per_feature, Exception):
                    outcomes[entry.index] = per_feature
                    continue
                req = requests[entry.index]
                try:
                    with armed_deadline(req.deadline), self._policies.request_scope():
                        outcomes[entry.index] = self._finish_batch_request(
                            entry, per_feature
                        )
                except Exception as exc:  # per-request isolation by contract
                    outcomes[entry.index] = exc
            span.annotate(scored=len(to_score))
            for req, outcome in zip(requests, outcomes):
                if isinstance(outcome, SearchResults):
                    self._record_query(req.kind, t0, outcome.n_candidates, outcome, span)
        return outcomes

    def _prepare_batch_request(self, req: QueryRequest) -> _BatchEntry:
        """Per-request admission: cache lookups, pruning, extraction, plan."""
        if req.image is not None:
            return self._prepare_frame_request(req)
        return self._prepare_vectors_entry(
            req.query_vectors, req.top_k, req.candidate_ids, req.weights, req.nprobe
        )

    def _prepare_frame_request(self, req: QueryRequest) -> _BatchEntry:
        """Frame-query admission, mirroring :meth:`query_frame` stage for stage."""
        names = self._resolve_features(req.features)
        use_index = self.config.use_index if req.use_index is None else req.use_index
        bypass = not self._query_cache.enabled or self._policies.faults.armed
        frame_key: Optional[tuple] = None
        generation = 0
        if not bypass:
            generation = self.store.generation
            frame_key = (
                "frame",
                digest_array(req.image.pixels),
                tuple(names),
                req.top_k,
                use_index,
            )
            if req.nprobe is not None:
                frame_key = frame_key + (("nprobe", int(req.nprobe)),)
            cached = self._query_cache.get(frame_key, generation)
            if cached is not None:
                return _BatchEntry(results=self._copy_results(cached, "hit"))
        self._policies.check_stage("search.extract")
        with self._obs.span("search.extract"):
            query_vectors, degraded = self._extract_degradable(req.image, names)
        with self.store.lock:
            candidate_ids, ann_probed = self._frame_candidates(
                req.image, query_vectors, use_index, req.nprobe
            )
            entry = self._prepare_vectors_entry(
                query_vectors, req.top_k, candidate_ids, None, req.nprobe
            )
        frame_state: Dict[str, object] = {
            "key": frame_key,
            "generation": generation,
            "degraded": degraded,
            "use_index": use_index,
            "ann_probed": ann_probed,
            "mode": (
                ("bypass" if self._policies.faults.armed else "off")
                if bypass
                else None
            ),
        }
        if entry.results is not None:
            # the inner vectors entry resolved (cache hit / no candidates):
            # apply the frame-level wrapper now, nothing left to score
            entry.results = self._finish_frame_entry(frame_state, entry.results)
        else:
            entry.frame = frame_state
        return entry

    def _prepare_vectors_entry(
        self,
        query_vectors: Dict[str, FeatureVector],
        top_k: int,
        candidate_ids: Optional[Sequence[int]],
        weights: Optional[Dict[str, float]],
        nprobe: Optional[int] = None,
    ) -> _BatchEntry:
        """Validation, cache lookup and plan of a vector query (scored later)."""
        names = [n for n in query_vectors if n in self.extractors]
        if not names:
            raise ValueError("query_vectors holds no configured features")
        entry = _BatchEntry()
        if not self._query_cache.enabled or self._policies.faults.armed:
            entry.cache_mode = "bypass" if self._policies.faults.armed else "off"
            plan = self._plan_vectors(
                query_vectors, names, top_k, candidate_ids, weights, nprobe
            )
            if plan.empty is not None:
                if plan.empty.explain is not None:
                    plan.empty.explain["cache"] = entry.cache_mode
                entry.results = plan.empty
            else:
                entry.plan = plan
            return entry
        entry.generation = self.store.generation
        entry.key = self._vectors_key(
            query_vectors, names, top_k, candidate_ids, weights, nprobe
        )
        cached = self._query_cache.get(entry.key, entry.generation)
        if cached is not None:
            entry.results = self._copy_results(cached, "hit")
            entry.key = None
            return entry
        plan = self._plan_vectors(
            query_vectors, names, top_k, candidate_ids, weights, nprobe
        )
        if plan.empty is not None:
            self._query_cache.put(entry.key, entry.generation, plan.empty)
            entry.results = self._copy_results(plan.empty, "miss")
            entry.key = None
        else:
            entry.plan = plan
        return entry

    def _finish_batch_request(
        self, entry: _BatchEntry, per_feature: Dict[str, np.ndarray]
    ) -> SearchResults:
        """Rank + cache-put + wrapper stages after the shared scoring pass."""
        results = self._rank_plan(entry.plan, per_feature)
        results = self._finish_vectors_entry(entry, results)
        if entry.frame is not None:
            results = self._finish_frame_entry(entry.frame, results)
        return results

    def _finish_vectors_entry(
        self, entry: _BatchEntry, results: SearchResults
    ) -> SearchResults:
        if entry.cache_mode is not None:
            if results.explain is not None:
                results.explain["cache"] = entry.cache_mode
            return results
        self._query_cache.put(entry.key, entry.generation, results)
        return self._copy_results(results, "miss")

    def _finish_frame_entry(
        self, frame_state: Dict[str, object], results: SearchResults
    ) -> SearchResults:
        """Frame-level annotations + frame-key cache put (mirrors
        :meth:`_query_frame`'s tail and :meth:`query_frame`'s wrapping)."""
        degraded = frame_state["degraded"]
        if degraded:
            results.degraded = True
            results.degraded_features = degraded
        explain = results.explain
        if explain is not None:
            explain["kind"] = "frame"
            explain["index"] = {
                "used": bool(frame_state["use_index"]),
                "pruning_ratio": round(results.pruning_fraction, 6),
            }
            if frame_state["ann_probed"] is not None:
                explain["ann"] = {
                    "enabled": True,
                    "probed": frame_state["ann_probed"],
                }
            if degraded:
                explain["degraded_features"] = list(degraded)
        if frame_state["key"] is not None:
            self._query_cache.put(
                frame_state["key"], frame_state["generation"], results
            )
            results = self._copy_results(results, "miss")
        elif explain is not None:
            explain["cache"] = frame_state["mode"]
        return results

    # -- video query ---------------------------------------------------------------

    def query_video(
        self,
        video: Union[SyntheticVideo, Sequence[Image]],
        features: Optional[Sequence[str]] = None,
        top_k: int = 10,
    ) -> List[VideoMatch]:
        """Rank stored videos against a query clip via DP sequence alignment."""
        frames = list(video.frames) if isinstance(video, SyntheticVideo) else list(video)
        if not frames:
            raise ValueError("query video has no frames")
        t0 = time.perf_counter()
        with self._policies.request_scope(), self._obs.span(
            "search.query_video", frames=len(frames), top_k=top_k
        ) as span:
            matches = self._query_video(frames, features, top_k)
        self._record_query("video", t0, span=span)
        return matches

    def _query_video(
        self,
        frames: List[Image],
        features: Optional[Sequence[str]],
        top_k: int,
    ) -> List[VideoMatch]:
        names = self._resolve_features(features)
        self._policies.check_stage("search.keyframes")
        key_frames = [f for _i, f in self.keyframe_extractor.extract(frames)]
        # per-key-frame extraction is the query-side CPU hot spot; fan it
        # out over the pool (order-preserving, so results are unchanged)
        self._policies.check_stage("search.extract")
        extract = partial(
            _extract_query_features, extractors=self.extractors, names=names
        )
        query_seq = self._pool.map(extract, key_frames)
        self._policies.check_stage("search.score")

        # Pairwise per-feature distances between the query sequence and the
        # *entire* stored frame population, so min-max normalization is
        # global: a video whose frames are all far from the query must keep
        # a large cost, not normalize down to zero.  The population and its
        # prepared stacks are read in one store-lock hold.
        all_records: List[FrameRecord] = []
        spans: Dict[int, slice] = {}
        with self.store.lock:
            video_ids = self.store.video_ids()
            if not video_ids:
                return []
            for video_id in video_ids:
                records = self.store.frames_of_video(video_id)
                spans[video_id] = slice(len(all_records), len(all_records) + len(records))
                all_records.extend(records)
            stacks = {name: self._prepared_matrix(name) for name in names}
            record_ids = [rec.frame_id for rec in all_records]
            # the stacks hold frames in id order; only ids interleaved
            # across videos pay a gather
            if record_ids != self.store.frame_ids():
                rows = self.store.matrix_rows(record_ids)
                stacks = {name: stack[rows] for name, stack in stacks.items()}

        nq, nr = len(query_seq), len(all_records)
        combined = np.zeros((nq, nr))
        total_weight = 0.0
        for name in names:
            extractor = self.extractors[name]
            m = np.empty((nq, nr))
            for i, qf in enumerate(query_seq):
                m[i, :] = extractor.batch_distance_prepared(qf[name], stacks[name])
            w = self.config.weight_of(name)
            combined += w * normalize_scores(m.ravel()).reshape(nq, nr)
            total_weight += w
        if total_weight > 0:
            combined /= total_weight

        matches: List[VideoMatch] = []
        for video_id in video_ids:
            span = spans[video_id]
            if span.stop == span.start:
                continue
            records = all_records[span]
            distance = self._sequence_distance(combined[:, span])
            matches.append(
                VideoMatch(
                    video_id=video_id,
                    video_name=records[0].video_name,
                    category=records[0].category,
                    distance=distance,
                )
            )
        matches = self._blend_motion(frames, matches)
        matches.sort(key=lambda m: m.distance)
        return matches[: max(0, top_k)]

    def _blend_motion(self, frames: Sequence[Image], matches: List["VideoMatch"]) -> List["VideoMatch"]:
        """Mix the clip-level motion distance into the appearance ranking.

        Active only when ``config.video_motion_weight > 0`` and the stored
        videos carry motion descriptors; both components are min-max
        normalized over the match set before the weighted blend.
        """
        weight = self.config.video_motion_weight
        if weight <= 0 or len(matches) < 2 or len(frames) < 2:
            return matches
        from repro.similarity.measures import canberra
        from repro.video.motion import motion_activity

        stored = [self.store.video_motion(m.video_id) for m in matches]
        if any(s is None for s in stored):
            return matches
        query_motion = motion_activity(frames)
        motion_d = np.array([canberra(query_motion, s.values) for s in stored])
        appearance_d = np.array([m.distance for m in matches])
        blended = (
            normalize_scores(appearance_d) + weight * normalize_scores(motion_d)
        ) / (1.0 + weight)
        return [
            VideoMatch(m.video_id, m.video_name, m.category, float(d))
            for m, d in zip(matches, blended)
        ]

    def _sequence_distance(self, cost_matrix: np.ndarray) -> float:
        """DP distance over a precomputed (fused, globally-normalized) matrix."""
        nq, nr = cost_matrix.shape
        indices_q = list(range(nq))
        indices_r = list(range(nr))
        def cost(i: int, j: int) -> float:
            return float(cost_matrix[i, j])

        if self.config.sequence_method == "dtw":
            return dtw_distance(indices_q, indices_r, cost)
        return sequence_similarity(
            indices_q, indices_r, cost, method="align",
            gap_penalty=self.config.sequence_gap_penalty,
        )

    # -- helpers -------------------------------------------------------------------------

    def _resolve_features(self, features: Optional[Sequence[str]]) -> List[str]:
        if features is None:
            return list(self.config.features)
        if isinstance(features, str):
            features = [features]
        names = list(features)
        if not names:
            raise ValueError("features must not be empty")
        unknown = [n for n in names if n not in self.extractors]
        if unknown:
            raise ValueError(
                f"features {unknown} are not configured; active: {sorted(self.extractors)}"
            )
        return names
