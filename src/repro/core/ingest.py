"""The admin ingest pipeline (the left half of the Fig. 3 DFD).

``add_video`` runs the full chain the paper describes:

1. serialize the frames into an RVF blob (``VIDEO_STORE.VIDEO``);
2. extract key frames with the §4.1 threshold algorithm;
3. for each key frame: run every configured feature extractor, compute the
   §4.2 ``(min, max)`` index bucket, encode the frame as a PPM blob;
4. insert the ``KEY_FRAMES`` rows, update the range index and the
   in-memory feature store -- all inside one transaction so a failing
   extractor leaves nothing half-ingested.

Step 3 is the CPU hot path -- seven extractors over every key frame -- and
is pure per-frame computation, so when ``config.workers > 1`` it fans out
over a :class:`repro.runtime.WorkerPool`; the DB writes of step 4 stay in
one transaction on the calling thread either way, and the pool's ordered
map keeps results byte-identical to a serial run.
"""

from __future__ import annotations

import datetime
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.catalog import FEATURE_COLUMNS
from repro.core.config import SystemConfig
from repro.core.store import FeatureStore, FrameRecord
from repro.db.engine import Database
from repro.db.errors import DatabaseError
from repro.db.sql import build_insert
from repro.features.base import FeatureExtractor, FeatureVector, get_extractor
from repro.imaging.image import Image
from repro.indexing.rangefinder import Bucket, RangeFinder
from repro.indexing.tree import RangeIndex
from repro.obs import NULL_OBS, Obs, log
from repro.resilience import NULL_POLICIES, ResiliencePolicies
from repro.runtime import WorkerPool, resolve_workers
from repro.video.codec import encode_rvf_bytes
from repro.video.generator import SyntheticVideo
from repro.video.keyframes import KeyFrameExtractor

__all__ = ["Ingestor", "IngestReport"]

#: per-key-frame computation result: features, index bucket, MAJORREGIONS,
#: PPM blob, and per-extractor wall seconds (timed where the work ran, so
#: parallel ingest still reports extraction latencies to the parent)
FramePayload = Tuple[Dict[str, FeatureVector], Bucket, int, bytes, Dict[str, float]]


def _compute_frame_payload(
    frame: Image,
    extractors: Dict[str, FeatureExtractor],
    finder: RangeFinder,
    fallback_regions: FeatureExtractor,
) -> FramePayload:
    """Everything ``_ingest_frame`` needs that does not touch the DB.

    Module-level and side-effect free so a :class:`WorkerPool` can ship it
    to worker processes.
    """
    features: Dict[str, FeatureVector] = {}
    timings: Dict[str, float] = {}
    for name, extractor in extractors.items():
        t0 = time.perf_counter()
        features[name] = extractor.extract(frame)
        timings[name] = time.perf_counter() - t0
    bucket = finder.bucket_for_image(frame)
    if "regions" in features:
        major_regions = int(features["regions"].values[2])
    else:
        major_regions = int(fallback_regions.extract(frame).values[2])
    return features, bucket, major_regions, frame.encode("ppm"), timings


class _StageTimer:
    """Context manager pairing a span with a per-stage histogram sample."""

    __slots__ = ("_span", "_hist", "_label", "_t0")

    def __init__(self, span: object, hist: object, label: str):
        self._span = span
        self._hist = hist
        self._label = label
        self._t0 = 0.0

    def __enter__(self) -> "_StageTimer":
        self._t0 = time.perf_counter()
        self._span.__enter__()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._hist.labels(stage=self._label).observe(
            time.perf_counter() - self._t0
        )
        return bool(self._span.__exit__(*exc_info))


@dataclass(frozen=True)
class IngestReport:
    """What one ``add_video`` call produced."""

    video_id: int
    video_name: str
    n_frames: int
    keyframe_ids: List[int]

    @property
    def n_keyframes(self) -> int:
        return len(self.keyframe_ids)


class Ingestor:
    """Admin-side pipeline bound to one database + store + index."""

    def __init__(
        self,
        db: Database,
        config: SystemConfig,
        store: FeatureStore,
        index: RangeIndex,
        pool: Optional[WorkerPool] = None,
        obs: Obs = NULL_OBS,
        policies: ResiliencePolicies = NULL_POLICIES,
    ):
        self.db = db
        self.config = config
        self.store = store
        self.index = index
        self.extractors: Dict[str, FeatureExtractor] = {
            name: get_extractor(name) for name in config.features
        }
        self.keyframe_extractor = KeyFrameExtractor(
            threshold=config.keyframe_threshold,
            base_size=config.keyframe_base_size,
        )
        # regions is needed for the MAJORREGIONS column even if not an
        # active search feature
        self._regions = self.extractors.get("regions") or get_extractor("regions")
        self._pool = pool or WorkerPool(workers=resolve_workers(config.workers))
        self._obs = obs
        self._policies = policies
        # optional SnapshotManager (attach_snapshots); mutations are logged
        # to its WAL after the DB commit + store mirror
        self._snapshots = None
        self._log = log.get_logger(__name__)
        self._m_videos = obs.counter(
            "repro_ingest_videos_total", "Videos ingested."
        )
        self._m_frames = obs.counter(
            "repro_ingest_frames_total", "Raw frames ingested."
        )
        self._m_keyframes = obs.counter(
            "repro_ingest_keyframes_total", "Key frames extracted and stored."
        )
        self._m_deletes = obs.counter(
            "repro_ingest_deletes_total", "Videos deleted."
        )
        self._m_renames = obs.counter(
            "repro_ingest_renames_total", "Videos renamed."
        )
        self._m_video_seconds = obs.histogram(
            "repro_ingest_video_seconds", "End-to-end add_video wall time."
        )
        self._m_stage_seconds = obs.histogram(
            "repro_ingest_stage_seconds",
            "Per-stage add_video wall time.",
            labelnames=("stage",),
        )
        self._m_extract_seconds = obs.histogram(
            "repro_ingest_extract_seconds",
            "Per-extractor wall time per key frame (measured in the worker).",
            labelnames=("feature",),
        )

    def close(self) -> None:
        """Tear down the worker pool (no-op for serial configurations)."""
        self._pool.close()

    def attach_snapshots(self, snapshots) -> None:
        """Log committed mutations to ``snapshots``' WAL (see core.snapshots)."""
        self._snapshots = snapshots

    @staticmethod
    def _motion_descriptor(frames: Sequence[Image]) -> FeatureVector:
        """Clip-level motion activity (zeros for single-frame clips)."""
        import numpy as np

        from repro.video.motion import MOTION_DIMS, motion_activity

        if len(frames) < 2:
            values = np.zeros(MOTION_DIMS)
        else:
            values = motion_activity(frames)
        return FeatureVector(kind="motion", values=values, tag="MOTION")

    # -- id allocation ----------------------------------------------------------

    #: literal MAX() statements per id column (R4: no interpolated SQL)
    _MAX_ID_SQL = {
        ("VIDEO_STORE", "V_ID"): "SELECT MAX(V_ID) FROM VIDEO_STORE",
        ("KEY_FRAMES", "I_ID"): "SELECT MAX(I_ID) FROM KEY_FRAMES",
    }

    def _next_id(self, table: str, column: str) -> int:
        """1 + the column's max, via an aggregate instead of fetching rows."""
        result = self.db.execute(self._MAX_ID_SQL[(table, column)]).scalar()
        return 1 + (int(result) if result is not None else 0)

    # -- operations -----------------------------------------------------------------

    def add_video(
        self,
        video: Union[SyntheticVideo, Sequence[Image]],
        name: Optional[str] = None,
        category: Optional[str] = None,
        stored_on: Optional[datetime.date] = None,
    ) -> IngestReport:
        """Ingest a video (SyntheticVideo or a plain frame sequence)."""
        if isinstance(video, SyntheticVideo):
            frames = list(video.frames)
            name = name or video.name
            category = category or video.category
        else:
            frames = list(video)
            if name is None:
                raise ValueError("a name is required when ingesting raw frames")
        if not frames:
            raise ValueError("cannot ingest an empty video")

        t_video = time.perf_counter()
        with self._policies.request_scope(), self._obs.span(
            "ingest.add_video", name=name, frames=len(frames)
        ) as root:
            video_id = self._next_id("VIDEO_STORE", "V_ID")
            next_frame_id = self._next_id("KEY_FRAMES", "I_ID")
            self._policies.check_stage("ingest.encode")
            with self._stage("encode"):
                video_blob = encode_rvf_bytes(frames)
            self._policies.check_stage("ingest.keyframes")
            with self._stage("keyframes"):
                key_frames = self.keyframe_extractor.extract(frames)
            stored_on = stored_on or datetime.date(2012, 10, 1)
            motion = self._motion_descriptor(frames)

            # fan the pure per-frame computation out across workers; the order
            # of payloads matches key_frames, so ids and rows are deterministic
            compute = partial(
                _compute_frame_payload,
                extractors=self.extractors,
                finder=self.index.finder,
                fallback_regions=self._regions,
            )
            self._policies.check_stage("ingest.features")
            with self._stage("features"):
                payloads = self._pool.map(
                    compute, [frame for _index, frame in key_frames]
                )
            for payload in payloads:
                for feature, seconds in payload[4].items():
                    self._m_extract_seconds.labels(feature=feature).observe(seconds)

            new_records: List[FrameRecord] = []
            self._policies.check_stage("ingest.db_txn")
            with self._stage("db_txn"):
                with self.db.transaction():
                    self.db.execute(
                        "INSERT INTO VIDEO_STORE (V_ID, V_NAME, CATEGORY, VIDEO, MOTION, DOSTORE)"
                        " VALUES (?, ?, ?, ?, ?, ?)",
                        (video_id, name, category, video_blob, motion.to_string(), stored_on),
                    )
                    for offset, ((frame_index, _frame), payload) in enumerate(zip(key_frames, payloads)):
                        frame_id = next_frame_id + offset
                        record = self._ingest_frame(
                            frame_id, video_id, name, category, frame_index, payload
                        )
                        new_records.append(record)

            # DB committed; now mirror into store + index, atomically for
            # searches (see FeatureStore.lock)
            with self._stage("mirror"), self.store.lock:
                for record in new_records:
                    self.store.add(record)
                    self.index.insert_bucket(record.frame_id, record.bucket)
                self.store.set_video_motion(video_id, motion)
            if self._snapshots is not None:
                self._snapshots.record_add_video(
                    video_id, name, category, motion, new_records
                )

            root.annotate(video_id=video_id, keyframes=len(new_records))
            elapsed = time.perf_counter() - t_video
            self._m_videos.inc()
            self._m_frames.inc(len(frames))
            self._m_keyframes.inc(len(new_records))
            self._m_video_seconds.observe(elapsed)
            self._log.info(
                "ingest.video",
                video_id=video_id,
                name=name,
                frames=len(frames),
                keyframes=len(new_records),
                ms=round(elapsed * 1000.0, 2),
            )
        return IngestReport(
            video_id=video_id,
            video_name=name,
            n_frames=len(frames),
            keyframe_ids=[r.frame_id for r in new_records],
        )

    def _stage(self, label: str) -> "_StageTimer":
        """A span + stage-histogram context manager for one pipeline stage."""
        return _StageTimer(
            self._obs.span(f"ingest.{label}"), self._m_stage_seconds, label
        )

    def _ingest_frame(
        self,
        frame_id: int,
        video_id: int,
        video_name: str,
        category: Optional[str],
        frame_index: int,
        payload: FramePayload,
    ) -> FrameRecord:
        """Write one precomputed key frame's row (DB work only)."""
        features, bucket, major_regions, ppm_blob, _timings = payload
        frame_name = f"{video_name}_f{frame_index:04d}"

        columns = ["I_ID", "I_NAME", "IMAGE", "MIN", "MAX", "MAJORREGIONS", "V_ID"]
        values: List[object] = [
            frame_id,
            frame_name,
            ppm_blob,
            bucket.min,
            bucket.max,
            major_regions,
            video_id,
        ]
        for name, vector in features.items():
            columns.append(FEATURE_COLUMNS[name])
            values.append(vector.to_string())
        self.db.execute(build_insert("KEY_FRAMES", columns), tuple(values))
        return FrameRecord(
            frame_id=frame_id,
            video_id=video_id,
            video_name=video_name,
            frame_name=frame_name,
            category=category,
            bucket=bucket,
            features=features,
        )

    def delete_video(self, video_id: int) -> int:
        """Remove a video and its key frames; returns removed frame count."""
        rows = self.db.execute(
            "SELECT V_ID FROM VIDEO_STORE WHERE V_ID = ?", (video_id,)
        ).rows
        if not rows:
            raise DatabaseError(f"no video with id {video_id}")
        with self.db.transaction():
            self.db.execute("DELETE FROM KEY_FRAMES WHERE V_ID = ?", (video_id,))
            self.db.execute("DELETE FROM VIDEO_STORE WHERE V_ID = ?", (video_id,))
        with self.store.lock:
            # index first: a search never sees a candidate the store lacks
            frame_ids = [r.frame_id for r in self.store.frames_of_video(video_id)]
            for fid in frame_ids:
                if fid in self.index:
                    self.index.remove(fid)
            self.store.remove_video(video_id)
        if self._snapshots is not None:
            self._snapshots.record_delete(video_id)
        self._m_deletes.inc()
        self._log.info(
            "ingest.delete", video_id=video_id, frames=len(frame_ids)
        )
        return len(frame_ids)

    def rename_video(self, video_id: int, new_name: str) -> None:
        """Update V_NAME (metadata-only update; features are untouched)."""
        count = self.db.execute(
            "UPDATE VIDEO_STORE SET V_NAME = ? WHERE V_ID = ?", (new_name, video_id)
        ).rowcount
        if count == 0:
            raise DatabaseError(f"no video with id {video_id}")
        with self.store.lock:
            self.store.rename_video(video_id, new_name)
        if self._snapshots is not None:
            self._snapshots.record_rename(video_id, new_name)
        self._m_renames.inc()
        self._log.info("ingest.rename", video_id=video_id, name=new_name)
