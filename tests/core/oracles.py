"""Reference scoring the production search path is checked against.

The engine scores every query one way: ``batch_distance_prepared`` over
the store's cached prepared stack.  These are the forms it replaced -- a
per-record loop of the extractor's scalar ``distance`` for frame, vector
and clip queries, and a per-record stack for store gathers.  They live
here, not in ``repro``, so there is one production code path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.features.base import FeatureVector
from repro.similarity.fusion import CombinedScorer, FeatureWeights, normalize_scores


def interleaved_store(store):
    """A copy of ``store`` with frame ids dealt round-robin across videos,
    so a video's frames are no longer contiguous in frame-id order."""
    from dataclasses import replace

    from repro.core.store import FeatureStore

    out = FeatureStore()
    by_video = [store.frames_of_video(v) for v in store.video_ids()]
    frame_id = 0
    for depth in range(max(map(len, by_video))):
        for records in by_video:
            if depth < len(records):
                frame_id += 1
                out.add(replace(records[depth], frame_id=frame_id))
    video_order = [r.frame_id for v in out.video_ids() for r in out.frames_of_video(v)]
    assert video_order != out.frame_ids(), "store too small to interleave"
    return out


def feature_matrix(store, name: str, frame_ids: Sequence[int]) -> np.ndarray:
    """The frames' ``name`` vectors stacked record by record."""
    rows = [store.get(fid).features[name].values for fid in frame_ids]
    return np.stack(rows).astype(np.float64, copy=False)


def scalar_ranking(
    engine,
    query_vectors: Dict[str, FeatureVector],
    top_k: int,
    candidate_ids: Optional[Sequence[int]] = None,
    weights: Optional[Dict[str, float]] = None,
) -> List[tuple]:
    """``(frame_id, distance, per_feature)`` hits of a vector query, scored
    one candidate record at a time and ordered by a stable argsort."""
    store = engine.store
    names = [n for n in query_vectors if n in engine.extractors]
    ids = store.frame_ids() if candidate_ids is None else list(candidate_ids)
    records = [store.get(fid) for fid in ids]
    per_feature = {
        name: np.array(
            [
                engine.extractors[name].distance(query_vectors[name], rec.features[name])
                for rec in records
            ]
        )
        for name in names
    }
    if len(names) == 1:
        fused = per_feature[names[0]]
    else:
        if weights is None:
            weights = {n: engine.config.weight_of(n) for n in names}
        fused = CombinedScorer(FeatureWeights(weights)).fuse(per_feature)
    order = np.argsort(fused, kind="stable")[: max(0, top_k)]
    return [
        (
            records[i].frame_id,
            float(fused[i]),
            {n: float(per_feature[n][i]) for n in names},
        )
        for i in order
    ]


def scalar_video_ranking(engine, frames, top_k: int) -> List[tuple]:
    """``(video_id, distance)`` of a clip query with every query/stored
    key-frame pair scored by the scalar ``distance`` of each feature
    (all configured features, no motion blend: the defaults)."""
    names = list(engine.config.features)
    key_frames = [f for _i, f in engine.keyframe_extractor.extract(frames)]
    query_seq = [
        {name: engine.extractors[name].extract(f) for name in names}
        for f in key_frames
    ]
    store = engine.store
    video_ids = store.video_ids()
    all_records = []
    spans = {}
    for video_id in video_ids:
        records = store.frames_of_video(video_id)
        spans[video_id] = slice(len(all_records), len(all_records) + len(records))
        all_records.extend(records)
    nq, nr = len(query_seq), len(all_records)
    combined = np.zeros((nq, nr))
    total_weight = 0.0
    for name in names:
        extractor = engine.extractors[name]
        m = np.empty((nq, nr))
        for i, qf in enumerate(query_seq):
            for j, rec in enumerate(all_records):
                m[i, j] = extractor.distance(qf[name], rec.features[name])
        w = engine.config.weight_of(name)
        combined += w * normalize_scores(m.ravel()).reshape(nq, nr)
        total_weight += w
    if total_weight > 0:
        combined /= total_weight
    matches = [
        (video_id, engine._sequence_distance(combined[:, spans[video_id]]))
        for video_id in video_ids
        if spans[video_id].stop > spans[video_id].start
    ]
    matches.sort(key=lambda m: m[1])
    return matches[: max(0, top_k)]
