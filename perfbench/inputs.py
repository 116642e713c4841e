"""Seeded workload inputs.

Everything a workload feeds the program is generated here from the
``--seed`` argument alone: the library videos, the held-out query frames
and clips, and the uploads.  Held-out inputs come from a separate seed
stream, so no query is a stored key frame.  ``digest`` hashes the pixels
of every generated input; the benchmark prints it, and the tests check
that one seed always yields the same bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.imaging.image import Image
from repro.video.generator import CATEGORIES, SyntheticVideo, VideoSpec, generate_video

#: frame size of every generated video (the scale of benchmarks/regress.py)
WIDTH, HEIGHT = 64, 48
FRAMES_PER_SHOT = 3

#: the ingest workload's per-round video lengths in shots: short clips and
#: long videos, three per generator category.  Five of the fifteen have
#: 9 to 11 shots, so the median add_video call averages over several
#: mid-length videos instead of hanging on one video's content
INGEST_SHOTS: Tuple[int, ...] = (2, 40, 3, 30, 4, 20, 6, 14, 8, 12, 9, 11, 10, 10, 10)

#: held-out query images served_rw draws from; 4x the default 256-entry
#: result cache, so the Zipf head is served from the cache and the tail
#: is not
CATALOGUE = 1024

# independent seed streams
_LIBRARY, _HELD_OUT, _CLIPS, _UPLOADS = range(4)


def _video_seed(seed: int, stream: int, index: int) -> int:
    return (seed * 7919 + stream * 100_003 + index) % (2**31 - 1)


def make_video(seed: int, stream: int, index: int, n_shots: int) -> SyntheticVideo:
    category = CATEGORIES[index % len(CATEGORIES)]
    spec = VideoSpec(
        category=category,
        seed=_video_seed(seed, stream, index),
        width=WIDTH,
        height=HEIGHT,
        n_shots=n_shots,
        frames_per_shot=FRAMES_PER_SHOT,
    )
    return generate_video(spec, name=f"{category}_{stream}_{index:03d}")


def variant(image: Image, seed: int, k: int) -> Image:
    """A distinct copy of ``image``: seeded +-2 pixel noise.

    Cheap enough to make one per operation, so query inputs never repeat
    (the result cache cannot hit) while each keeps its source's category.
    """
    rng = np.random.default_rng((seed, k))
    noise = rng.integers(-2, 3, size=image.pixels.shape, dtype=np.int16)
    pixels = np.clip(image.pixels.astype(np.int16) + noise, 0, 255).astype(np.uint8)
    return Image.from_array(pixels)


@dataclass
class Inputs:
    """One workload's generated inputs."""

    library: List[SyntheticVideo]
    #: held-out query frames with the category of the video they came from
    queries: List[Tuple[Image, str]]
    #: held-out query clips (frame sequences) with their category
    clips: List[Tuple[List[Image], str]] = field(default_factory=list)
    uploads: List[SyntheticVideo] = field(default_factory=list)
    #: served_rw: distinct variants of the held-out frames, with category
    catalogue: List[Tuple[Image, str]] = field(default_factory=list)

    @property
    def raw_bytes(self) -> int:
        """Raw RGB bytes of the library's frames."""
        return sum(f.pixels.nbytes for v in self.library for f in v.frames)

    def digest(self) -> str:
        h = hashlib.sha256()

        def add(image: Image) -> None:
            h.update(repr(image.pixels.shape).encode())
            h.update(image.pixels.tobytes())

        for video in self.library + self.uploads:
            h.update(f"{video.name}/{video.category}".encode())
            for frame in video.frames:
                add(frame)
        for image, category in self.queries + self.catalogue:
            h.update(category.encode())
            add(image)
        for frames, category in self.clips:
            h.update(category.encode())
            for frame in frames:
                add(frame)
        return h.hexdigest()


def held_out_queries(seed: int, n_videos: int) -> List[Tuple[Image, str]]:
    """One frame from the middle of every shot of ``n_videos`` held-out videos."""
    out = []
    for i in range(n_videos):
        video = make_video(seed, _HELD_OUT, i, n_shots=4)
        for shot in range(4):
            out.append((video.frames[shot * FRAMES_PER_SHOT + 1], video.category))
    return out


def held_out_clips(seed: int, n: int) -> List[Tuple[List[Image], str]]:
    clips = []
    for i in range(n):
        video = make_video(seed, _CLIPS, i, n_shots=1)
        clips.append((list(video.frames), video.category))
    return clips


def build(workload: str, seed: int, small: bool = False) -> Inputs:
    """The inputs of ``workload`` for ``seed`` (``small`` for tests)."""
    if workload == "ingest":
        shots: Sequence[int] = (2, 3) if small else INGEST_SHOTS
        library = [make_video(seed, _LIBRARY, i, n) for i, n in enumerate(shots)]
        return Inputs(library, held_out_queries(seed, 2 if small else 20),
                      held_out_clips(seed, 2 if small else 5))
    if workload == "search":
        n_videos, n_shots = (2, 2) if small else (20, 50)
    elif workload == "served_rw":
        n_videos, n_shots = (2, 2) if small else (10, 30)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    library = [make_video(seed, _LIBRARY, i, n_shots) for i in range(n_videos)]
    queries = held_out_queries(seed, 2 if small else 20)
    inputs = Inputs(library, queries, held_out_clips(seed, 2 if small else 5))
    if workload == "served_rw":
        inputs.uploads = [make_video(seed, _UPLOADS, i, n_shots=2)
                          for i in range(2 if small else 5)]
        inputs.catalogue = [
            (variant(queries[j % len(queries)][0], seed, 1_000_000 + j), queries[j % len(queries)][1])
            for j in range(16 if small else CATALOGUE)
        ]
    return inputs

