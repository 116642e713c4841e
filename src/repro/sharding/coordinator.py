"""The scatter-gather coordinator: one engine over N shard partitions.

:class:`ShardedSearchEngine` subclasses the single-store
:class:`~repro.core.search.SearchEngine` and keeps its whole query-side
surface -- range-index pruning, query cache, extractor degradation,
deadlines -- while replacing the distance computation: candidates are
split by owning shard, scored in parallel by persistent snapshot-backed
worker processes, and merged back coordinator-side.

The merge is **byte-identical** to the single-store ranking because the
shards return raw per-feature distances (see :mod:`repro.sharding.worker`)
which are reassembled in global candidate order before the one global
min-max normalization + weighted fusion + stable top-k the base engine
runs.  A shard that fails (or whose circuit breaker is open) degrades to
a partial ranking over the surviving partitions -- exactly the ranking a
store holding only those partitions would produce -- surfaced via
``SearchResults.degraded_shards``; ``config.shard_partial_ok=False``
escalates instead.
"""

from __future__ import annotations

import os
import time
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SystemConfig
from repro.core.results import RetrievalResult, SearchResults
from repro.core.search import (
    SearchEngine,
    VideoMatch,
    _extract_query_features,
    _QueryPlan,
    _stable_topk,
)
from repro.core.snapshots import init_worker_snapshot, open_snapshot_store
from repro.core.store import FeatureStore
from repro.imaging.image import Image
from repro.indexing.rangefinder import RangeFinder
from repro.indexing.tree import RangeIndex
from repro.obs import NULL_OBS, Obs, current_trace_context, free_span, span_from_dict
from repro.resilience import (
    NULL_POLICIES,
    CircuitOpenError,
    DeadlineExceeded,
    ResiliencePolicies,
)
from repro.runtime import PoolTask, WorkerPool
from repro.sharding.worker import (
    drain_worker_metrics,
    score_vectors_shard,
    score_vectors_shard_batch,
    score_video_shard,
)
from repro.similarity.fusion import CombinedScorer, FeatureWeights, normalize_scores

__all__ = ["ShardedSearchEngine"]


class ShardedSearchEngine(SearchEngine):
    """Scatter-gather query execution over per-shard snapshot partitions."""

    def __init__(
        self,
        config: SystemConfig,
        shard_paths: Sequence[str],
        pool: Optional[WorkerPool] = None,
        obs: Obs = NULL_OBS,
        policies: ResiliencePolicies = NULL_POLICIES,
    ):
        if not shard_paths:
            raise ValueError("shard_paths must name at least one snapshot")
        if config.ann:
            raise ValueError(
                "ann is not supported with sharded serving: the "
                "coordinator merges exact raw distances"
            )
        paths = [os.path.abspath(os.fspath(p)) for p in shard_paths]
        snapshots = []
        stores: List[FeatureStore] = []
        try:
            for path in paths:
                snapshot, store = open_snapshot_store(path)
                snapshots.append(snapshot)
                stores.append(store)
            merged, index = self._merge(config, stores)
        except Exception:
            for snapshot in snapshots:
                snapshot.close()
            raise
        # the base engine runs pruning/extraction/cache over the merged
        # store; its pool only does query-side key-frame extraction
        super().__init__(
            config, merged, index, pool=pool or WorkerPool(workers=1),
            obs=obs, policies=policies,
        )
        self._snapshots = snapshots
        self._paths = paths
        # merged-row -> owning shard, aligned with merged.frame_ids()
        global_ids = np.asarray(merged.frame_ids(), dtype=np.int64)
        self._row_shard = np.empty(global_ids.size, dtype=np.int64)
        self._shard_frame_ids: List[np.ndarray] = []
        for s, store in enumerate(stores):
            ids = np.asarray(store.frame_ids(), dtype=np.int64)
            self._shard_frame_ids.append(ids)
            if ids.size:
                self._row_shard[np.searchsorted(global_ids, ids)] = s
        self._global_ids = global_ids
        # one persistent single-worker pool per shard: the worker process
        # mmaps its partition once (init_worker_snapshot) and stays up
        # across queries instead of re-forking per request
        self._shard_pools: List[WorkerPool] = []
        for path in paths:
            shard_pool = WorkerPool(workers=1)
            shard_pool.set_initializer(init_worker_snapshot, (path,))
            self._shard_pools.append(shard_pool)
        self._breakers = [
            policies.make_breaker(f"shard{s}") if policies.enabled else None
            for s in range(len(paths))
        ]
        self._m_shard_queries = obs.counter(
            "repro_shard_queries_total",
            "Shard dispatches, by shard and outcome.",
            labelnames=("shard", "outcome"),
        )
        self._m_shard_seconds = obs.histogram(
            "repro_shard_query_seconds",
            "Per-shard dispatch-to-gather wall time.",
            labelnames=("shard",),
            buckets=obs.latency_buckets,
        )
        self._m_merge_seconds = obs.histogram(
            "repro_shard_merge_seconds",
            "Coordinator-side merge (assemble + fuse + top-k) wall time.",
            buckets=obs.latency_buckets,
        )
        self._m_partials = obs.counter(
            "repro_shard_partial_results_total",
            "Queries answered with at least one shard missing.",
        )
        obs.gauge("repro_shards", "Configured shard count.").set(len(paths))

    @staticmethod
    def _merge(
        config: SystemConfig, stores: Sequence[FeatureStore]
    ) -> Tuple[FeatureStore, RangeIndex]:
        """One store + range index over every partition's records.

        Records are shared, not copied: their feature mappings keep
        viewing the shard snapshots' mmaps, so the merge costs metadata
        only.  Duplicate frame ids (overlapping shard sets) fail fast in
        ``FeatureStore.add``.
        """
        merged = FeatureStore()
        for store in stores:
            for fid in store.frame_ids():
                merged.add(store.get(fid))
            for vid in store.video_ids():
                motion = store.video_motion(vid)
                if motion is not None:
                    merged.set_video_motion(vid, motion)
        finder = RangeFinder(
            first_threshold=config.index_first_threshold,
            threshold=config.index_threshold,
            max_level=config.index_max_level,
        )
        index = RangeIndex(finder)
        for fid in merged.frame_ids():
            index.insert_bucket(fid, merged.get(fid).bucket)
        return merged, index

    @property
    def n_shards(self) -> int:
        return len(self._paths)

    # -- scatter-gather core ---------------------------------------------------

    def _scatter(
        self,
        fn: Callable,
        payloads: Sequence[Tuple[int, tuple]],
    ) -> Tuple[Dict[int, object], List[int], Dict[int, Dict[str, object]]]:
        """Dispatch ``fn(*args)`` to each listed shard's worker; gather.

        Returns ``(results_by_shard, degraded_shards, shard_meta)`` where
        ``shard_meta`` carries per-shard wall time / outcome for explain
        payloads.  Per-shard failures -- an open breaker, an injected
        ``shard.query`` fault, a dead worker past the pool's own serial
        fallback -- drop the shard into ``degraded_shards`` and feed its
        breaker; deadline overruns always escalate.  Raises the last
        shard error when nothing survived or ``config.shard_partial_ok``
        is off.

        Observability rides on the tasks themselves: each payload is
        extended with a trace context (trace id, the scatter span as
        parent, a per-shard label, and a metrics request), replies carry
        serialized span subtrees that are stitched under the scatter span
        plus registry deltas merged ``shard``-labeled into the
        coordinator's registry.
        """
        with self._obs.span("search.scatter", shards=len(payloads)) as scatter_span:
            ctx: Optional[Dict[str, object]] = None
            if self._obs.enabled:
                ctx = current_trace_context() or {
                    "trace_id": None, "span_id": None, "sampled": False,
                }
                ctx["metrics"] = True
            pending: List[Tuple[int, PoolTask, float]] = []
            gathered: Dict[int, object] = {}
            shard_meta: Dict[int, Dict[str, object]] = {}
            degraded: List[int] = []
            last_error: Optional[Exception] = None
            for s, args in payloads:
                breaker = self._breakers[s]
                t0 = time.perf_counter()
                try:
                    if breaker is not None:
                        breaker.guard()
                    self._policies.fire("shard.query")
                    task_ctx = dict(ctx, shard=s) if ctx is not None else None
                    task = self._shard_pools[s].submit(fn, *args, task_ctx)
                except CircuitOpenError as exc:
                    last_error = exc
                    degraded.append(s)
                    self._shard_down(s, "breaker_open", shard_meta)
                    continue
                except DeadlineExceeded:
                    raise
                except Exception as exc:
                    if breaker is not None:
                        breaker.record_failure()
                    last_error = exc
                    degraded.append(s)
                    self._shard_down(s, f"{type(exc).__name__}: {exc}", shard_meta)
                    continue
                pending.append((s, task, t0))
            for s, task, t0 in pending:
                breaker = self._breakers[s]
                try:
                    reply = task.result()
                except DeadlineExceeded:
                    raise
                except Exception as exc:
                    if breaker is not None:
                        breaker.record_failure()
                    last_error = exc
                    degraded.append(s)
                    self._shard_down(s, f"{type(exc).__name__}: {exc}", shard_meta)
                    continue
                if breaker is not None:
                    breaker.record_success()
                wall = time.perf_counter() - t0
                self._m_shard_seconds.labels(shard=str(s)).observe(wall)
                self._m_shard_queries.labels(shard=str(s), outcome="ok").inc()
                gathered[s] = reply.value
                shard_meta[s] = {
                    "shard": s,
                    "status": "ok",
                    "wall_ms": round(wall * 1000.0, 3),
                    "inline": task.inline,
                }
                if reply.span is not None:
                    scatter_span.attach(span_from_dict(reply.span))
                if reply.metrics is not None:
                    self._obs.registry.merge_state(
                        reply.metrics, {"shard": str(s)}
                    )
            if degraded:
                degraded.sort()
                self._m_partials.inc()
                if not gathered or not self.config.shard_partial_ok:
                    raise last_error
                scatter_span.annotate(degraded_shards=",".join(map(str, degraded)))
                if ctx is not None and ctx.get("sampled"):
                    # keep the trace honest: a missing partition shows up
                    # as an explicit error child, not a silent hole
                    for s in degraded:
                        marker = free_span("shard.degraded", shard=s)
                        marker.status = "error"
                        marker.error = str(shard_meta[s].get("error", "degraded"))
                        marker.duration_ms = 0.0
                        scatter_span.attach(marker)
        return gathered, degraded, shard_meta

    def _shard_down(
        self,
        shard: int,
        reason: str,
        shard_meta: Optional[Dict[int, Dict[str, object]]] = None,
    ) -> None:
        self._m_shard_queries.labels(shard=str(shard), outcome="error").inc()
        self._policies.note_degraded(f"shard.{shard}")
        self._log.warning("search.shard_degraded", shard=shard, reason=reason)
        if shard_meta is not None:
            shard_meta[shard] = {"shard": shard, "status": "error", "error": reason}

    # -- frame / vector queries ------------------------------------------------

    def _plan_vectors(
        self,
        query_vectors,
        names: List[str],
        top_k: int,
        candidate_ids,
        weights,
        nprobe=None,
    ) -> _QueryPlan:
        """Split the candidate set by owning shard into scatter payloads."""
        self._policies.check_stage("search.score")
        if candidate_ids is None:
            candidate_arr = self._global_ids
        else:
            candidate_arr = np.asarray(list(candidate_ids), dtype=np.int64)
        n_total = len(self.store)
        plan = _QueryPlan(
            query_vectors=query_vectors,
            names=list(names),
            top_k=int(top_k),
            weights=weights,
            n_total=n_total,
        )
        if not candidate_arr.size:
            plan.explain = {
                "kind": "vectors",
                "features": list(names),
                "top_k": int(top_k),
                "n_total": n_total,
                "n_candidates": 0,
                "sharded": {"shards": self.n_shards, "dispatched": 0},
            }
            plan.empty = SearchResults(
                [], n_candidates=0, n_total=n_total, explain=plan.explain
            )
            return plan

        plan.candidate_arr = candidate_arr
        if candidate_arr is self._global_ids:
            owners = self._row_shard
        else:
            owners = self._row_shard[self.store.matrix_rows(candidate_arr)]
        payloads: List[Tuple[int, tuple]] = []
        positions: Dict[int, np.ndarray] = {}
        for s in range(self.n_shards):
            pos = np.nonzero(owners == s)[0]
            if not pos.size:
                continue
            ids = candidate_arr[pos]
            # a shard receiving its full id list in ascending order scores
            # everything it has -- no id payload, no row gather
            if np.array_equal(ids, self._shard_frame_ids[s]):
                send: Optional[List[int]] = None
            else:
                send = [int(fid) for fid in ids]
            payloads.append((s, (query_vectors, list(names), send)))
            positions[s] = pos
        plan.payloads = payloads
        plan.positions = positions
        return plan

    def _score_plan(self, plan: _QueryPlan) -> Dict[str, np.ndarray]:
        """One scatter for one plan (the serial query path)."""
        payloads = [(s, (self._paths[s],) + args) for s, args in plan.payloads]
        gathered, degraded, shard_meta = self._scatter(score_vectors_shard, payloads)
        return self._merge_gathered(plan, gathered, degraded, shard_meta)

    def _score_plans(self, plans) -> List[object]:
        """One scatter per shard covering *every* plan in the batch.

        Each shard worker loops the identical single-query scoring code
        per plan (see ``score_vectors_shard_batch``), so the returned
        arrays are byte-identical to per-plan dispatch -- the batch only
        collapses N IPC round trips per shard into one.  A shard failure
        degrades every batchmate that dispatched to it, exactly as N
        serial queries hitting the same dead shard would.
        """
        per_shard_args: Dict[int, List[tuple]] = {}
        slot: Dict[Tuple[int, int], int] = {}
        for pi, plan in enumerate(plans):
            for s, args in plan.payloads:
                bucket = per_shard_args.setdefault(s, [])
                slot[(s, pi)] = len(bucket)
                bucket.append(args)
        payloads = [
            (s, (self._paths[s], queries))
            for s, queries in sorted(per_shard_args.items())
        ]
        try:
            gathered, degraded, shard_meta = self._scatter(
                score_vectors_shard_batch, payloads
            )
        except Exception as exc:  # every shard down / partial_ok off
            return [exc for _ in plans]
        out: List[object] = []
        for pi, plan in enumerate(plans):
            gathered_local: Dict[int, object] = {}
            meta_local: Dict[int, Dict[str, object]] = {}
            for s in plan.positions:
                if s in gathered:
                    gathered_local[s] = gathered[s][slot[(s, pi)]]
                if s in shard_meta:
                    meta_local[s] = dict(shard_meta[s])
            degraded_local = [s for s in degraded if s in plan.positions]
            try:
                out.append(
                    self._merge_gathered(
                        plan, gathered_local, degraded_local, meta_local
                    )
                )
            except Exception as exc:  # per-plan isolation by contract
                out.append(exc)
        return out

    def _merge_gathered(
        self,
        plan: _QueryPlan,
        gathered: Dict[int, object],
        degraded: List[int],
        shard_meta: Dict[int, Dict[str, object]],
    ) -> Dict[str, np.ndarray]:
        """Reassemble shard replies into global-order per-feature arrays."""
        names = plan.names
        positions = plan.positions
        for s, pos in positions.items():
            meta = shard_meta.get(s)
            if meta is not None:
                meta["candidates"] = int(pos.size)
        plan.merge_t0 = time.perf_counter()
        # reassemble each feature's raw distances in global candidate order
        per_feature: Dict[str, np.ndarray] = {}
        for s, shard_values in gathered.items():
            pos = positions[s]
            for name in names:
                dest = per_feature.get(name)
                if dest is None:
                    dest = per_feature[name] = np.empty(
                        plan.candidate_arr.size, dtype=shard_values[name].dtype
                    )
                dest[pos] = shard_values[name]
        if degraded:
            # compact over the surviving positions: exactly the arrays a
            # store holding only the surviving partitions would produce
            keep = np.sort(np.concatenate([positions[s] for s in gathered]))
            plan.candidate_arr = plan.candidate_arr[keep]
            for name in names:
                per_feature[name] = per_feature[name][keep]
        plan.degraded_shards = degraded
        plan.shard_meta = shard_meta
        return per_feature

    def _rank_plan(
        self, plan: _QueryPlan, per_feature: Dict[str, np.ndarray]
    ) -> SearchResults:
        """The base engine's fusion + ranking tail, verbatim: one global
        normalization over the candidate set."""
        names = plan.names
        weights = plan.weights
        candidate_arr = plan.candidate_arr
        if len(names) == 1:
            fused = np.asarray(per_feature[names[0]], dtype=np.float64)
        else:
            if weights is None:
                weights = {n: self.config.weight_of(n) for n in names}
            fused = CombinedScorer(FeatureWeights(weights)).fuse(per_feature)
        hits = []
        for i in _stable_topk(fused, max(0, plan.top_k)):
            record = self.store.get(int(candidate_arr[i]))
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
        merge_s = time.perf_counter() - plan.merge_t0
        self._m_merge_seconds.observe(merge_s)
        shard_meta = plan.shard_meta
        explain: Dict[str, object] = {
            "kind": "vectors",
            "features": list(names),
            "top_k": int(plan.top_k),
            "n_total": plan.n_total,
            "n_candidates": int(candidate_arr.size),
            "sharded": {
                "shards": self.n_shards,
                "dispatched": len(plan.payloads),
                "merge_ms": round(merge_s * 1000.0, 3),
                "per_shard": [shard_meta[s] for s in sorted(shard_meta)],
            },
        }
        if plan.degraded_shards:
            explain["degraded_shards"] = list(plan.degraded_shards)
        plan.explain = explain
        return SearchResults(
            hits,
            n_candidates=int(candidate_arr.size),
            n_total=plan.n_total,
            degraded_shards=plan.degraded_shards,
            explain=explain,
        )

    # -- video queries ---------------------------------------------------------

    def _query_video(
        self,
        frames: List[Image],
        features,
        top_k: int,
    ) -> List[VideoMatch]:
        names = self._resolve_features(features)
        self._policies.check_stage("search.keyframes")
        key_frames = [f for _i, f in self.keyframe_extractor.extract(frames)]
        self._policies.check_stage("search.extract")
        extract = partial(
            _extract_query_features, extractors=self.extractors, names=names
        )
        query_seq = self._pool.map(extract, key_frames)
        self._policies.check_stage("search.score")
        if not self.store.video_ids():
            return []

        payloads = [
            (s, (self._paths[s], query_seq, list(names)))
            for s in range(self.n_shards)
            if self._shard_frame_ids[s].size
        ]
        gathered, _degraded, _shard_meta = self._scatter(score_video_shard, payloads)

        t_merge = time.perf_counter()
        # global record order (videos ascending, frames ascending within)
        # restricted to the surviving shards' videos
        shard_of_video: Dict[int, int] = {}
        shard_spans: Dict[int, slice] = {}
        for s, (_blocks, shard_vids) in gathered.items():
            offset = 0
            for vid in shard_vids:
                shard_of_video[vid] = s
                n = len(self.store.frames_of_video(vid))
                shard_spans[vid] = slice(offset, offset + n)
                offset += n
        video_ids = [
            vid for vid in self.store.video_ids() if vid in shard_of_video
        ]
        all_records = []
        spans: Dict[int, slice] = {}
        for video_id in video_ids:
            records = self.store.frames_of_video(video_id)
            spans[video_id] = slice(
                len(all_records), len(all_records) + len(records)
            )
            all_records.extend(records)
        nq, nr = len(query_seq), len(all_records)
        combined = np.zeros((nq, nr))
        total_weight = 0.0
        for name in names:
            m = np.empty((nq, nr))
            for video_id in video_ids:
                blocks, _vids = gathered[shard_of_video[video_id]]
                m[:, spans[video_id]] = blocks[name][:, shard_spans[video_id]]
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
            matches.append(
                VideoMatch(
                    video_id=video_id,
                    video_name=records[0].video_name,
                    category=records[0].category,
                    distance=self._sequence_distance(combined[:, span]),
                )
            )
        matches = self._blend_motion(frames, matches)
        matches.sort(key=lambda m: m.distance)
        self._m_merge_seconds.observe(time.perf_counter() - t_merge)
        return matches[: max(0, top_k)]

    # -- introspection / shutdown ----------------------------------------------

    def sharding_stats(self) -> Dict[str, object]:
        """Shard topology + breaker states for ``system.metrics()``."""
        return {
            "shards": self.n_shards,
            "paths": list(self._paths),
            "partial_ok": bool(self.config.shard_partial_ok),
            "frames_per_shard": [int(ids.size) for ids in self._shard_frame_ids],
            "breakers": {
                f"shard{s}": breaker.stats()
                for s, breaker in enumerate(self._breakers)
                if breaker is not None
            },
        }

    def _drain_shard_metrics(self) -> None:
        """Pull each live worker's residual metric delta (drain-on-recycle).

        Counts recorded after a worker's last query reply -- snapshot
        opens, resets -- would otherwise vanish with the process.  The
        drain is strictly best-effort: a dead or never-started worker is
        skipped, shutdown never fails on it.
        """
        if not self._obs.enabled:
            return
        for s, shard_pool in enumerate(self._shard_pools):
            if not shard_pool.active:
                continue
            try:
                delta = shard_pool.submit(drain_worker_metrics).result()
            except Exception:
                continue
            if delta:
                self._obs.registry.merge_state(delta, {"shard": str(s)})

    def close(self) -> None:
        """Stop the shard workers and release the partition mmaps."""
        with self._obs.span("shard.close"):
            self._drain_shard_metrics()
            for shard_pool in self._shard_pools:
                shard_pool.close()
            for snapshot in self._snapshots:
                snapshot.close()
            super().close()
