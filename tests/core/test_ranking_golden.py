"""Golden rankings: every query kind's output is pinned by SHA-256.

The digests below were captured while the engine could still pick its
scoring kernel at runtime, from the path that is now the only one.  A
change to a frame id, a fused distance, a per-feature distance or the
tie order of any ranking -- frame, vectors, clip, relevance feedback or
a 4-shard scatter-gather -- shows up here as a digest mismatch.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.feedback import FeedbackSession
from repro.core.system import VideoRetrievalSystem
from repro.sharding import ShardedSearchEngine, read_manifest, split_store
from repro.video.generator import VideoSpec, generate_video, make_corpus

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

GOLDEN = {
    "frame": "9c242513308ca9bcc68da01aefda01ee1c016bb7c5b939574a5c10dd7009d5a3",
    "vectors": "6c690d485fef7476830ffadfa6740d4b064fb48e1cb5f3a99606d75d42c67855",
    "clip": "525eb6cd2e11848acd9bab91c40a76288ed2e127b71ad7633b9a99657148a584",
    "feedback": "2eb2ca2264310b45e9ab5c03d2e5ea9455517959255c8d3c29f426036df27d25",
    "sharded": "f0145c04eae5009c50e31155100b6f92d8e0c52f4941c876e1607b0b1fab8881",
}


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _frame_key(results):
    return [
        (h.frame_id, float(h.distance), sorted(h.per_feature.items()))
        for h in results
    ]


def _clip_key(matches):
    return [(m.video_id, float(m.distance)) for m in matches]


def _queries():
    """Held-out clips: their frames and key frames are not in the library."""
    return [
        generate_video(VideoSpec(category=c, seed=s, n_shots=2, frames_per_shot=5))
        for c, s in (("news", 811), ("sports", 822), ("cartoon", 833))
    ]


def _frame_parts(engine, queries):
    parts = []
    for video in queries:
        image = video.frames[3]
        parts.append(_frame_key(engine.query_frame(image, top_k=25)))
        parts.append(_frame_key(engine.query_frame(image, top_k=25, use_index=False)))
        for name in ("glcm", "tamura", "sch"):
            parts.append(_frame_key(engine.query_frame(image, features=name, top_k=25)))
    return parts


def _vector_parts(engine, queries):
    parts = []
    ids = engine.store.frame_ids()
    subset = ids[::3] + ids[1:7]
    weights = {"glcm": 2.0, "gabor": 0.5, "tamura": 1.0, "sch": 1.5, "acc": 1.0}
    for video in queries:
        vectors = {
            name: engine.extractors[name].extract(video.frames[6])
            for name in ("glcm", "gabor", "tamura", "sch", "acc")
        }
        parts.append(_frame_key(engine.query_with_vectors(vectors, top_k=30)))
        parts.append(
            _frame_key(
                engine.query_with_vectors(
                    vectors, top_k=30, candidate_ids=subset, weights=weights
                )
            )
        )
    return parts


def _clip_parts(engine, queries):
    parts = []
    for video in queries:
        parts.append(_clip_key(engine.query_video(video, top_k=12)))
        parts.append(_clip_key(engine.query_video(video, features="glcm", top_k=12)))
    return parts


@pytest.fixture(scope="module")
def golden_system():
    system = VideoRetrievalSystem.in_memory()
    admin = system.login_admin()
    for video in make_corpus(videos_per_category=3, seed=41, n_shots=4, frames_per_shot=4):
        admin.add_video(video)
    yield system
    system.close()


def ranking_digests(system, shard_root):
    engine = system._engine
    queries = _queries()
    feedback = []
    for video in queries:
        session = FeedbackSession(system, video.frames[2])
        first = session.search(top_k=20)
        feedback.append(_frame_key(first))
        session.mark_relevant(first[0].frame_id, first[3].frame_id)
        session.mark_irrelevant(first[1].frame_id)
        feedback.append(_frame_key(session.refine(top_k=20)))
        session.mark_relevant(first[5].frame_id)
        feedback.append(_frame_key(session.refine(top_k=20)))

    split_store(system.feature_store, shard_root, 4)
    _, paths = read_manifest(shard_root)
    sharded = ShardedSearchEngine(system.config, paths)
    try:
        sharded_parts = (
            _frame_parts(sharded, queries)
            + _vector_parts(sharded, queries)
            + _clip_parts(sharded, queries)
        )
    finally:
        sharded.close()
    return {
        "frame": _sha(_frame_parts(engine, queries)),
        "vectors": _sha(_vector_parts(engine, queries)),
        "clip": _sha(_clip_parts(engine, queries)),
        "feedback": _sha(feedback),
        "sharded": _sha(sharded_parts),
    }


def test_rankings_match_golden(golden_system, tmp_path):
    got = ranking_digests(golden_system, str(tmp_path))
    for key, digest in got.items():
        assert digest == GOLDEN[key], key
