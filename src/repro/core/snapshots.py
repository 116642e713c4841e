"""Store-level snapshot management: mmap cold start + WAL + compaction.

:mod:`repro.snapshot` owns the bytes; this module translates them to and
from live objects.  :class:`SnapshotManager` sits beside the
:class:`~repro.core.store.FeatureStore` and

- **opens**: maps the snapshot read-only, restores the store's frame
  population and generation counters, replays the WAL on top, seeds the
  stacked-matrix cache with the mmap views (queries then serve straight
  off the page cache), and hands the IVF coarse quantizer its trained
  state -- all without touching a single ``KEY_FRAMES`` row;
- **records**: appends each ingest/delete/rename to the WAL so the
  on-disk image keeps up without a full rewrite per mutation;
- **compacts**: folds the WAL into a fresh snapshot (atomic rename)
  once it grows past ``snapshot_compact_every`` entries.

Failure handling is fallback-first: a missing, corrupt, stale, or
version-skewed snapshot means the system rebuilds from SQL exactly as if
no snapshot existed, counts the miss, and reports itself degraded only
in the ``repro_snapshot_opens_total{outcome="rebuild"}`` sense --
``snapshot="require"`` turns that fallback into a hard error for read
replicas that must never touch the database.

Byte-correctness: WAL replay parses the very same feature strings the
SQL rebuild would parse, and the restored generation counters continue
exactly where the writing process left them, so query-cache keys and
``structure_generation``-based invalidation agree between a process that
lived through the mutations and one that replayed them.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Mapping as MappingABC
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.store import FeatureStore, FrameRecord
from repro.features.base import FeatureVector
from repro.indexing.rangefinder import Bucket
from repro.obs import NULL_OBS, Obs, log
from repro.resilience import NULL_POLICIES, FaultInjected, ResiliencePolicies
from repro.snapshot import (
    CorruptSnapshotError,
    CorruptWalError,
    Snapshot,
    SnapshotError,
    WalWriter,
    read_wal,
    remove_wal,
    wal_path_for,
    write_snapshot,
)

__all__ = [
    "SnapshotManager",
    "SnapshotRequiredError",
    "build_snapshot_payload",
    "load_snapshot_into_store",
    "open_snapshot_store",
    "init_worker_snapshot",
    "worker_snapshot_path",
    "worker_feature_matrix",
]

#: snapshot meta discriminator (a repro.snapshot file could hold anything)
_META_KIND = "cbvr-store"


class SnapshotRequiredError(RuntimeError):
    """``snapshot="require"`` and no valid snapshot could be opened."""


# -- lazy snapshot-backed feature mappings -------------------------------------


class _SnapshotFeatures:
    """Shared per-snapshot state: mmap matrices + row lookup per feature."""

    __slots__ = ("matrices", "tags", "rows_of")

    def __init__(self) -> None:
        #: feature name -> (n, d) mmap view, frames in ascending-id order
        self.matrices: Dict[str, np.ndarray] = {}
        self.tags: Dict[str, str] = {}
        #: feature name -> None (every frame has it; row == frame position)
        #: or frame_id -> row for features only a subset of frames carry
        self.rows_of: Dict[str, Optional[Dict[int, int]]] = {}

    def row(self, name: str, frame_id: int, position: int) -> int:
        """The frame's row in ``matrices[name]``; KeyError when absent."""
        rows = self.rows_of[name]  # KeyError: unknown feature, as dict would
        if rows is None:
            return position
        return rows[frame_id]


class _FrameFeatures(MappingABC):
    """One frame's ``features`` mapping, materialized lazily from the mmap.

    Ingested records hold plain dicts of parsed vectors; snapshot-backed
    records hold this instead, so opening a million-frame snapshot costs
    no vector copies -- a :class:`FeatureVector` is built (and its row
    paged in) only when a caller reads one record's vector: relevance
    feedback's ``refine()`` and the paper API's ``distance()``.  Search
    scoring never does: it reads the seeded matrices directly.
    """

    __slots__ = ("_shared", "_frame_id", "_position")

    def __init__(self, shared: _SnapshotFeatures, frame_id: int, position: int):
        self._shared = shared
        self._frame_id = frame_id
        self._position = position

    def __getitem__(self, name: str) -> FeatureVector:
        row = self._shared.row(name, self._frame_id, self._position)
        return FeatureVector(
            kind=name,
            values=self._shared.matrices[name][row],
            tag=self._shared.tags[name],
        )

    def __contains__(self, name: object) -> bool:
        rows = self._shared.rows_of.get(name)  # type: ignore[arg-type]
        if rows is None:
            return name in self._shared.rows_of
        return self._frame_id in rows

    def __iter__(self) -> Iterator[str]:
        return (name for name in self._shared.rows_of if name in self)

    def __len__(self) -> int:
        return sum(1 for _ in self)


# -- store <-> snapshot translation --------------------------------------------


def build_snapshot_payload(
    store: FeatureStore, ivf=None
) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """``(arrays, meta)`` for :func:`repro.snapshot.write_snapshot`.

    Feature matrices are stored as float64 -- the ISSUE's float32 would
    halve the file but break the acceptance bar that mmap-served rankings
    are *byte-identical* to the SQL rebuild (feature strings parse to
    float64); the dtype is recorded per section, so a future narrower
    layout is a version bump away.
    """
    ids = store.frame_ids()
    records = [store.get(fid) for fid in ids]
    id_arr = np.asarray(ids, dtype=np.int64)
    arrays: Dict[str, np.ndarray] = {
        "frame_ids": id_arr,
        "frame_video_ids": np.asarray(
            [r.video_id for r in records], dtype=np.int64
        ),
        "bucket_min": np.asarray([r.bucket.min for r in records], dtype=np.int64),
        "bucket_max": np.asarray([r.bucket.max for r in records], dtype=np.int64),
    }
    features_meta: Dict[str, Dict[str, object]] = {}
    for name in sorted({n for r in records for n in r.features}):
        have = [i for i, r in enumerate(records) if name in r.features]
        tag = records[have[0]].features[name].tag
        if len(have) == len(records):
            matrix = store.feature_matrix(name)
            features_meta[name] = {"tag": tag, "rows": "all"}
        else:
            matrix = np.stack([records[i].features[name].values for i in have])
            arrays[f"feat_rows:{name}"] = id_arr[have]
            features_meta[name] = {"tag": tag, "rows": "subset"}
        arrays[f"feat:{name}"] = np.asarray(matrix, dtype=np.float64)
    videos: Dict[str, Dict[str, object]] = {}
    for vid in store.video_ids():
        first = store.frames_of_video(vid)[0]
        motion = store.video_motion(vid)
        videos[str(vid)] = {
            "name": first.video_name,
            "category": first.category,
            "motion": motion.to_string() if motion is not None else None,
        }
    meta: Dict[str, object] = {
        "kind": _META_KIND,
        "generation": store.generation,
        "structure_generation": store.structure_generation,
        "n_frames": len(ids),
        "frame_names": [r.frame_name for r in records],
        "features": features_meta,
        "videos": videos,
    }
    if ivf is not None:
        state = ivf.export_state()
        if state is not None:
            ivf_arrays, ivf_meta = state
            for key, value in ivf_arrays.items():
                arrays[f"ivf:{key}"] = value
            meta["ivf"] = ivf_meta
    return arrays, meta


def load_snapshot_into_store(snap: Snapshot, store: FeatureStore) -> None:
    """Restore the frame population from an open snapshot (no WAL yet).

    Every full-coverage feature matrix is seeded into the store's stack
    cache as the raw mmap view, so the first query reads pages straight
    from the file instead of re-stacking vectors.
    """
    meta = snap.meta
    if meta.get("kind") != _META_KIND:
        raise CorruptSnapshotError(
            f"{snap.path}: not a store snapshot (kind={meta.get('kind')!r})"
        )
    ids = snap.section("frame_ids")
    vids = snap.section("frame_video_ids")
    bucket_min = snap.section("bucket_min")
    bucket_max = snap.section("bucket_max")
    frame_names = list(meta["frame_names"])
    if not (len(ids) == len(vids) == len(bucket_min) == len(bucket_max) == len(frame_names)):
        raise CorruptSnapshotError(f"{snap.path}: frame table sections disagree")
    videos: Dict[str, Dict[str, object]] = meta["videos"]
    shared = _SnapshotFeatures()
    for name, fmeta in meta["features"].items():
        shared.matrices[name] = snap.section(f"feat:{name}")
        shared.tags[name] = str(fmeta["tag"])
        if fmeta["rows"] == "all":
            shared.rows_of[name] = None
        else:
            shared.rows_of[name] = {
                int(fid): row
                for row, fid in enumerate(snap.section(f"feat_rows:{name}"))
            }
    records: List[FrameRecord] = []
    for pos in range(len(ids)):
        fid = int(ids[pos])
        vid = int(vids[pos])
        vinfo = videos[str(vid)]
        records.append(
            FrameRecord(
                frame_id=fid,
                video_id=vid,
                video_name=str(vinfo["name"]),
                frame_name=str(frame_names[pos]),
                category=vinfo.get("category"),
                bucket=Bucket(int(bucket_min[pos]), int(bucket_max[pos])),
                features=_FrameFeatures(shared, fid, pos),
            )
        )
    motion = {
        int(vid): FeatureVector.from_string("motion", str(vinfo["motion"]))
        for vid, vinfo in videos.items()
        if vinfo.get("motion")
    }
    store.load_snapshot_state(
        records,
        motion,
        generation=int(meta["generation"]),
        structure_generation=int(meta["structure_generation"]),
    )
    for name, rows in shared.rows_of.items():
        if rows is None:
            store.seed_matrix(name, shared.matrices[name])


def open_snapshot_store(path: str) -> Tuple[Snapshot, FeatureStore]:
    """Open a snapshot + its WAL into a fresh read-replica store.

    The pure-mmap analogue of :meth:`SnapshotManager.try_open` for callers
    that have only a snapshot file and no database -- shard workers and the
    scatter-gather coordinator.  No fallback: a missing or corrupt file
    raises, because a replica silently serving an empty partition would
    corrupt merged rankings.  The caller owns closing the returned
    :class:`~repro.snapshot.Snapshot` (the store's seeded matrices view its
    mmap).
    """
    snap = Snapshot.open(path)
    try:
        store = FeatureStore()
        base = (
            int(snap.meta["generation"]),
            int(snap.meta["structure_generation"]),
        )
        entries = read_wal(wal_path_for(path), base[0], base[1])
        load_snapshot_into_store(snap, store)
        for entry in entries:
            _replay_wal_entry(store, entry)
    except Exception:
        snap.close()
        raise
    return snap, store


def _replay_wal_entry(store: FeatureStore, entry: Dict[str, object]) -> None:
    """Apply one WAL record through the exact mutation path ingest used.

    ``add_video`` re-parses the recorded feature strings with
    ``FeatureVector.from_string`` -- the same code the SQL rebuild runs --
    so a replayed store is byte-identical to a rebuilt one.
    """
    op = entry.get("op")
    if op == "add_video":
        video_id = int(entry["video_id"])
        name = str(entry["name"])
        category = entry.get("category")
        for frame in entry["frames"]:
            features = {
                fname: FeatureVector.from_string(fname, text)
                for fname, text in frame["features"].items()
            }
            store.add(
                FrameRecord(
                    frame_id=int(frame["frame_id"]),
                    video_id=video_id,
                    video_name=name,
                    frame_name=str(frame["frame_name"]),
                    category=category,
                    bucket=Bucket(int(frame["bucket"][0]), int(frame["bucket"][1])),
                    features=features,
                )
            )
        if entry.get("motion"):
            store.set_video_motion(
                video_id, FeatureVector.from_string("motion", str(entry["motion"]))
            )
    elif op == "delete_video":
        store.remove_video(int(entry["video_id"]))
    elif op == "rename_video":
        store.rename_video(int(entry["video_id"]), str(entry["name"]))
    else:
        raise CorruptWalError(f"unknown WAL op {op!r}")


# -- the manager ---------------------------------------------------------------


class SnapshotManager:
    """Owns one system's snapshot file, WAL, and compaction policy."""

    def __init__(
        self,
        config,
        db,
        store: FeatureStore,
        obs: Obs = NULL_OBS,
        policies: ResiliencePolicies = NULL_POLICIES,
    ):
        self.config = config
        self.db = db
        self.store = store
        self.mode: str = config.snapshot
        path = config.snapshot_path
        if path is None and db.path is not None:
            path = db.path + ".snap"
        self.path: Optional[str] = path
        self._policies = policies
        self._obs = obs
        self._log = log.get_logger(__name__)
        self._engine = None  # attach_engine; needed for IVF state
        self._snapshot: Optional[Snapshot] = None
        self._wal: Optional[WalWriter] = None
        self._served_from = "none"
        self._m_opens = obs.counter(
            "repro_snapshot_opens_total",
            "System cold starts by source (mmap snapshot vs SQL rebuild).",
            labelnames=("outcome",),
        )
        self._m_open_seconds = obs.histogram(
            "repro_snapshot_open_seconds",
            "Snapshot open + WAL replay wall time.",
        )
        self._m_compact_seconds = obs.histogram(
            "repro_snapshot_compact_seconds",
            "Snapshot compaction (WAL fold + rewrite) wall time.",
        )
        self._m_compactions = obs.counter(
            "repro_snapshot_compactions_total",
            "Snapshot compactions, by outcome.",
            labelnames=("outcome",),
        )
        self._m_writes = obs.counter(
            "repro_snapshot_writes_total", "Full snapshot files written."
        )
        self._m_wal_depth = obs.gauge(
            "repro_snapshot_wal_depth",
            "Mutations in the WAL since the base snapshot.",
        )

    @property
    def active(self) -> bool:
        """Whether this system participates in snapshot serving at all."""
        return self.mode != "off" and self.path is not None

    @property
    def served_from(self) -> str:
        """How this process started: ``mmap``, ``rebuild``, or ``none``."""
        return self._served_from

    @property
    def wal_depth(self) -> int:
        return self._wal.depth if self._wal is not None else 0

    def attach_engine(self, engine) -> None:
        """Bind the search engine (its IVF index rides in the snapshot)."""
        self._engine = engine

    # -- opening ---------------------------------------------------------------

    def try_open(self) -> bool:
        """Serve from the snapshot; ``False`` -> caller rebuilds from SQL.

        On any failure in ``auto`` mode -- missing file, checksum mismatch,
        foreign version/endianness, stale WAL, or disagreement with the
        database -- the store is left empty, a fallback is counted, and the
        caller runs the usual SQL rebuild.  ``require`` escalates the same
        failures to :class:`SnapshotRequiredError`.
        """
        if not self.active:
            self._served_from = "rebuild"
            return False
        t0 = time.perf_counter()
        try:
            self._policies.fire("snapshot.open")
            snap = Snapshot.open(self.path)
            base = (
                int(snap.meta["generation"]),
                int(snap.meta["structure_generation"]),
            )
            entries = read_wal(wal_path_for(self.path), base[0], base[1])
            load_snapshot_into_store(snap, self.store)
            for entry in entries:
                _replay_wal_entry(self.store, entry)
            self._check_freshness()
        except FileNotFoundError:
            return self._open_failed("missing snapshot file")
        except (SnapshotError, FaultInjected, KeyError, ValueError, TypeError) as exc:
            # malformed meta surfaces as KeyError/ValueError; a partially
            # replayed store is discarded before the SQL rebuild
            self.store.clear()
            return self._open_failed(f"{type(exc).__name__}: {exc}")
        self._snapshot = snap
        self._wal = WalWriter(wal_path_for(self.path), base[0], base[1])
        self._served_from = "mmap"
        if self._engine is not None and self._engine.ann is not None:
            ivf_meta = snap.meta.get("ivf")
            if ivf_meta is not None:
                ivf_arrays = {
                    name[len("ivf:") :]: snap.section(name)
                    for name in snap.section_names()
                    if name.startswith("ivf:")
                }
                self._engine.ann.load_state(ivf_arrays, ivf_meta)
        elapsed = time.perf_counter() - t0
        self._m_opens.labels(outcome="mmap").inc()
        self._m_open_seconds.observe(elapsed)
        self._m_wal_depth.set(self._wal.depth)
        self._log.info(
            "snapshot.open",
            path=self.path,
            frames=len(self.store),
            wal_entries=len(entries),
            ms=round(elapsed * 1000.0, 2),
        )
        return True

    def _open_failed(self, reason: str) -> bool:
        if self.mode == "require":
            raise SnapshotRequiredError(
                f"snapshot='require' but {self.path}: {reason}"
            )
        self._served_from = "rebuild"
        self._m_opens.labels(outcome="rebuild").inc()
        self._policies.note_fallback("snapshot_rebuild")
        self._log.warning("snapshot.fallback", path=self.path, reason=reason)
        return False

    def _check_freshness(self) -> None:
        """The snapshot + WAL must reproduce exactly the database's frames.

        Durable systems compare frame count and max id (cheap aggregates)
        against the replayed store; a snapshot another writer left behind
        -- or one that simply missed the last transactions -- is stale and
        falls back to the rebuild.  In-memory systems skip the check: with
        an explicit ``snapshot_path`` they are pure mmap read replicas that
        by design never consult SQL (see docs/snapshot.md).
        """
        if not self.db.is_durable:
            return
        count = self.db.execute("SELECT COUNT(*) FROM KEY_FRAMES").scalar()
        max_id = self.db.execute("SELECT MAX(I_ID) FROM KEY_FRAMES").scalar()
        ids = self.store.frame_ids()
        store_max = ids[-1] if ids else None
        if int(count) != len(ids) or (max_id is None) != (store_max is None) or (
            max_id is not None and int(max_id) != int(store_max)
        ):
            raise CorruptSnapshotError(
                f"snapshot+WAL holds {len(ids)} frames (max id {store_max}), "
                f"database holds {count} (max id {max_id}): stale snapshot"
            )

    # -- incremental recording -------------------------------------------------

    def _append(self, op: str, payload: Dict[str, object]) -> None:
        if self._wal is None:
            return
        try:
            self._wal.append(op, payload)
        except OSError as exc:
            # never fail the (already committed) mutation over WAL I/O;
            # the stale snapshot is caught by _check_freshness on next open
            self._log.warning(
                "snapshot.wal_error", op=op, error=f"{type(exc).__name__}: {exc}"
            )
            self._policies.note_fallback("snapshot_wal_disabled")
            self._wal = None
            return
        self._m_wal_depth.set(self._wal.depth)
        self.maybe_compact()

    def record_add_video(
        self,
        video_id: int,
        name: str,
        category: Optional[str],
        motion: Optional[FeatureVector],
        records: List[FrameRecord],
    ) -> None:
        """Log one committed ``add_video`` (call after the store mirror)."""
        self._append(
            "add_video",
            {
                "video_id": video_id,
                "name": name,
                "category": category,
                "motion": motion.to_string() if motion is not None else None,
                "frames": [
                    {
                        "frame_id": r.frame_id,
                        "frame_name": r.frame_name,
                        "bucket": [r.bucket.min, r.bucket.max],
                        "features": {
                            fname: vector.to_string()
                            for fname, vector in r.features.items()
                        },
                    }
                    for r in records
                ],
            },
        )

    def record_delete(self, video_id: int) -> None:
        self._append("delete_video", {"video_id": video_id})

    def record_rename(self, video_id: int, new_name: str) -> None:
        self._append("rename_video", {"video_id": video_id, "name": new_name})

    # -- writing / compaction --------------------------------------------------

    def write(self) -> str:
        """Write a full snapshot of the live store (and IVF) right now.

        Atomic (tmp + rename); on success the WAL restarts empty at the
        new base generation.  This is both the explicit ``repro snapshot
        write`` / ``checkpoint()`` path and the compaction rewrite.
        """
        if self.path is None:
            raise SnapshotError(
                "no snapshot path: pass SystemConfig(snapshot_path=...) or "
                "open a durable database"
            )
        ivf = self._engine.ann if self._engine is not None else None
        arrays, meta = build_snapshot_payload(self.store, ivf)
        write_snapshot(self.path, arrays, meta)
        remove_wal(self.path)
        self._wal = WalWriter(
            wal_path_for(self.path),
            self.store.generation,
            self.store.structure_generation,
        )
        self._m_writes.inc()
        self._m_wal_depth.set(0)
        self._log.info(
            "snapshot.write", path=self.path, frames=len(self.store)
        )
        return self.path

    def maybe_compact(self) -> bool:
        """Compact when the WAL has outgrown ``snapshot_compact_every``."""
        limit = self.config.snapshot_compact_every
        if limit <= 0 or self._wal is None or self._wal.depth < limit:
            return False
        return self.compact()

    def compact(self) -> bool:
        """Fold the WAL into a fresh snapshot; ``False`` on failure.

        A failed (or fault-injected, point ``snapshot.compact``) run
        leaves the old snapshot + WAL fully intact -- the write is atomic
        and the WAL is only truncated after the rename lands -- so a kill
        mid-compact costs nothing but the retry.
        """
        t0 = time.perf_counter()
        try:
            self._policies.fire("snapshot.compact")
            self.write()
        except (FaultInjected, SnapshotError, OSError) as exc:
            self._m_compactions.labels(outcome="error").inc()
            self._policies.note_fallback("snapshot_compact_failed")
            self._log.warning(
                "snapshot.compact_failed", error=f"{type(exc).__name__}: {exc}"
            )
            return False
        elapsed = time.perf_counter() - t0
        self._m_compactions.labels(outcome="ok").inc()
        self._m_compact_seconds.observe(elapsed)
        self._log.info("snapshot.compact", ms=round(elapsed * 1000.0, 2))
        return True

    # -- introspection ---------------------------------------------------------

    def stats(self) -> Optional[Dict[str, object]]:
        """Summary for ``system.metrics()`` (None when snapshots are off)."""
        if not self.active:
            return None
        return {
            "mode": self.mode,
            "path": self.path,
            "served_from": self._served_from,
            "wal_depth": self.wal_depth,
            "generation": self.store.generation,
            "structure_generation": self.store.structure_generation,
        }

    def close(self) -> None:
        """Release the mmap (idempotent; part of system shutdown)."""
        with self._obs.span("snapshot.close"):
            if self._snapshot is not None:
                self._snapshot.close()
                self._snapshot = None


# -- worker-process access -----------------------------------------------------
#
# Forked/spawned pool workers must not inherit (or unpickle) the parent's
# matrices; instead the pool initializer hands them the snapshot path and
# they map the same file -- the OS shares the physical pages.  Module
# state is guarded for R15: the initializer runs once per worker, but
# in-process pools (serial fallback) share this module with the parent.

_worker_lock = threading.Lock()
_worker_path: Optional[str] = None
_worker_snapshot: Optional[Snapshot] = None


def init_worker_snapshot(path: Optional[str]) -> None:
    """Worker-pool initializer: remember the snapshot to map lazily."""
    global _worker_path, _worker_snapshot
    with _worker_lock:
        _worker_path = path
        _worker_snapshot = None


def worker_snapshot_path() -> Optional[str]:
    """The snapshot path this worker was initialized with (None = no mmap)."""
    with _worker_lock:
        return _worker_path


def worker_feature_matrix(name: str) -> Optional[np.ndarray]:
    """A feature's stacked matrix, mapped in this worker process.

    Returns None when the pool was started without a snapshot; raises
    ``KeyError`` for a feature the snapshot does not carry.
    """
    global _worker_snapshot
    with _worker_lock:
        if _worker_path is None:
            return None
        if _worker_snapshot is None:
            _worker_snapshot = Snapshot.open(_worker_path)
        return _worker_snapshot.section(f"feat:{name}")
