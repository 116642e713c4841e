"""Searches that overlap ingest never fail on a half-applied mutation.

``add_video`` mirrors a committed video into the feature store and the
range index, and ``delete_video`` removes one; a search running on
another thread must see each step whole.  Without the store lock a
search could take candidates from the index that the store no longer
(or not yet) holds, or row positions from one store generation and a
stack from the next: a ``KeyError`` from ``matrix_rows`` or an
``IndexError`` from the row gather.  A tiny switch interval makes the
interpreter interleave the threads at almost every bytecode, so the
race windows are hit within a few add/delete rounds.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.config import SystemConfig
from repro.core.search import QueryRequest
from repro.core.system import VideoRetrievalSystem
from repro.video.generator import VideoSpec, generate_video

ROUNDS = 6


def _video(seed, category, shots=2):
    return generate_video(
        VideoSpec(category=category, seed=seed, width=48, height=32,
                  n_shots=shots, frames_per_shot=2)
    )


@pytest.fixture()
def system():
    # no result cache: every search reaches the store
    system = VideoRetrievalSystem.in_memory(
        SystemConfig(query_cache_size=0, workers=1)
    )
    for seed, category in ((1, "news"), (2, "sports"), (3, "cartoon")):
        system.admin.add_video(_video(seed, category))
    yield system
    system.close()


@pytest.fixture()
def fast_switching():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


def test_searches_during_add_and_delete_never_error(system, fast_switching):
    uploads = [_video(10 + i, "news", shots=3) for i in range(2)]
    queries = [f for v in uploads for f in v.frames[::2]] + [system.any_key_frame()]
    engine = system.engine
    errors = []
    done = threading.Event()

    def writer():
        try:
            for _round in range(ROUNDS):
                for video in uploads:
                    report = system.admin.add_video(video)
                    system.admin.delete_video(report.video_id)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(("writer", exc))
        finally:
            done.set()

    def reader(k):
        i = 0
        while not done.is_set():
            query = queries[(i + k) % len(queries)]
            i += 1
            try:
                system.search(query, top_k=5)
                system.search(query, top_k=5, use_index=False)
                outcomes = engine.query_batch(
                    [QueryRequest(image=query, top_k=3),
                     QueryRequest(image=queries[0], top_k=3, use_index=False)]
                )
                for outcome in outcomes:
                    if isinstance(outcome, Exception):
                        raise outcome
                if i % 4 == 0:
                    system.search_by_video(uploads[0].frames[:3], top_k=3)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append((f"reader{k}", exc))

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(k,)) for k in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # every round's upload was deleted again
    assert sorted(system._store.video_ids()) == [1, 2, 3]
