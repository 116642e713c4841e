"""Golden corpus: the write path's bytes are pinned by SHA-256.

The digests below were captured from the loop RLE encoder and the
one-frame-at-a-time key-frame signature, before either was vectorized.
Any change to the RVF bytes, the chosen key frames, a stored feature
string, a motion string or the RSNAP1 snapshot shows up here as a
digest mismatch.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import TABLE1_FEATURES, SystemConfig
from repro.core.system import VideoRetrievalSystem
from repro.features.naive import NaiveSignature
from repro.imaging.image import Image
from repro.video.codec import encode_rvf_bytes
from repro.video.generator import VideoSpec, generate_video
from repro.video.keyframes import KeyFrameExtractor

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

GOLDEN = {
    "rvf": "007bbf1a0493c97843d59a12ee1868199485d942d2e29ef11db9334ec536103f",
    "keyframes": "2492afb08c5b40543ae35d1a2482085411e563f3133849835e93e4403a2add0d",
    "signatures": "acc30bfc6e34504340ebfb43ec0110a007d898b6155aa7884ae1cebb3a15059d",
    "key_frames_rows": "aeb1d99f2cc99442ee2ac8ddd032db7b7b8287aeb3d43f4fd6f061407302c776",
    "motion": "ed284dfb808d0060c7735d59906a6caad6670d8f2950606117674be1b4e4174e",
    "snapshot": "9b72a9043d91e942121de3aec0c28ee109c8630b62399ebc173ea0adc0d645f3",
}


def _videos():
    return [
        generate_video(VideoSpec(category=c, seed=s, n_shots=2, frames_per_shot=5))
        for c, s in (("news", 101), ("sports", 202), ("cartoon", 303))
    ]


def _extra_clips():
    """Clips that take the other codec branches: flat bands (auto picks
    RLE, runs well past 255) and an odd-sized gray clip."""
    bands = []
    for t in range(4):
        arr = np.zeros((21, 301, 3), dtype=np.uint8)
        arr[: 7 + t] = 10 * t + 20
        arr[7 + t :] = (250, 250, 90 + t)
        bands.append(Image(arr))
    gen = np.random.default_rng(5)
    gray = [
        Image((np.arange(37 * 23).reshape(23, 37) * (t + 1) % 251).astype(np.uint8))
        for t in range(3)
    ] + [Image(gen.integers(0, 256, (23, 37), dtype=np.uint8))]
    return [bands, gray]


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _clips():
    return [list(v.frames) for v in _videos()] + _extra_clips()


def rvf_digest() -> str:
    return _sha(
        encode_rvf_bytes(frames, codec=codec)
        for frames in _clips()
        for codec in ("auto", "rle", "raw")
    )


def keyframes_digest() -> str:
    return _sha(
        [i for i, _f in KeyFrameExtractor(base_size=b).extract(frames)]
        for frames in _clips()
        for b in (64, 150, 300)
    )


def signatures_digest() -> str:
    parts = []
    for frames in _clips():
        for b in (64, 150, 300):
            extractor = KeyFrameExtractor(base_size=b)
            parts.extend(extractor.signature(f).tobytes() for f in frames)
    naive = NaiveSignature()
    parts.extend(naive.extract(f).to_string() for frames in _clips() for f in frames)
    return _sha(parts)


def ingest_digests(tmp_path):
    lib = str(tmp_path / "golden.rdb")
    config = SystemConfig(features=TABLE1_FEATURES + ("naive",), workers=1)
    system = VideoRetrievalSystem.open(lib, config)
    for video in _videos():
        system.admin.add_video(video)
    system.admin.checkpoint()
    rows = system.db.execute(
        "SELECT I_ID, I_NAME, MIN, MAX, SCH, GLCM, GABOR, TAMURA, ACC, NAIVE,"
        " REGIONS FROM KEY_FRAMES ORDER BY I_ID"
    ).rows
    motion = system.db.execute(
        "SELECT V_ID, MOTION FROM VIDEO_STORE ORDER BY V_ID"
    ).rows
    system.close()
    with open(lib + ".snap", "rb") as fh:
        snapshot = fh.read()
    return {
        "key_frames_rows": _sha(sorted(r.items()) for r in rows),
        "motion": _sha(sorted(r.items()) for r in motion),
        "snapshot": _sha([snapshot]),
    }


def test_rvf_bytes_match_golden():
    assert rvf_digest() == GOLDEN["rvf"]


def test_key_frame_indices_match_golden():
    assert keyframes_digest() == GOLDEN["keyframes"]


def test_signatures_match_golden():
    assert signatures_digest() == GOLDEN["signatures"]


def test_ingest_strings_and_snapshot_match_golden(tmp_path):
    got = ingest_digests(tmp_path)
    for key, digest in got.items():
        assert digest == GOLDEN[key], key
