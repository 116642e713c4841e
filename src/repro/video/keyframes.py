"""Key-frame extraction (paper §4.1).

The paper's algorithm walks the ordered frame list, keeping the first frame
of each run of mutually-similar frames and deleting the rest::

    i = 0
    while i < len(frames):
        keep frame i
        j = i + 1
        while j < len(frames) and dist(frame_i, frame_j) <= threshold:
            delete frame j; j += 1
        i = j

``dist`` is computed between *rescaled versions* of the frames ("rescaled
IVersion of image file", §4.1) and compared against the constant ``800.0``.
The rescale + 25-point signature used here is exactly the naive descriptor of
§4.6 (300x300 nearest-neighbour rescale, 25 block means), with the distance
being the summed Euclidean distance between corresponding mean colors --
which makes 800.0 a workable threshold (identical frames score 0, a shot
change scores in the thousands).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.imaging.image import Image
from repro.imaging.resize import nearest_indices

__all__ = [
    "KeyFrameExtractor",
    "extract_key_frames",
    "frame_signature",
    "frame_signatures",
    "frame_signature_distance",
]

#: The paper's similarity threshold ("if (dist > 800.0)").
PAPER_THRESHOLD = 800.0
#: §4.6: "float scaleW = 300, scaleH = 300".
BASE_SIZE = 300
#: §4.6: 25 representative locations on a 5x5 grid.
GRID = 5
#: §4.6: "Let sampleSize = 15" -- half-width of the averaging window.
SAMPLE_SIZE = 15
#: float64 values per stacked chunk (512 KiB, about one 150x150 rescale):
#: bounds the temporary a long or large upload allocates
CHUNK_VALUES = 1 << 16


def _window_weights(src: int, base_size: int, grid: int, sample_size: int):
    """One axis of the windowed rescale: ``(used, weights, lengths)``.

    Window ``g`` covers rescaled positions ``[lo, hi)`` of length
    ``lengths[g]``.  The nearest-neighbour rescale reads source index
    ``picks[p]`` at position ``p``, so a window's sum weights each source
    index by how often it is picked.  ``used`` lists the source indices some
    window picks (at most ``base_size`` of them) and ``weights[g]`` holds
    their counts, shape ``(grid, len(used))``.
    """
    picks = nearest_indices(src, base_size)
    weights = np.zeros((grid, src))
    lengths = np.zeros(grid)
    for g in range(grid):
        centre = int((g + 0.5) / grid * base_size)
        lo, hi = max(0, centre - sample_size), min(base_size, centre + sample_size)
        weights[g] = np.bincount(picks[lo:hi], minlength=src)
        lengths[g] = hi - lo
    used = np.flatnonzero(weights.any(axis=0))
    return used, weights[:, used], lengths


def frame_signatures(
    frames: Sequence[Image],
    base_size: int = BASE_SIZE,
    grid: int = GRID,
    sample_size: int = SAMPLE_SIZE,
) -> np.ndarray:
    """25-point mean-color signatures (the §4.6 descriptor) of many frames.

    Each frame is rescaled to ``base_size`` square with nearest-neighbour
    interpolation, then for each of ``grid x grid`` locations the mean RGB
    of the surrounding ``2*sample_size`` window is taken.  The rescale is
    never materialized: a window's sum is two weighted contractions of the
    picked source pixels (see ``_window_weights``).  The sums are integers
    below 2**53, so they are exact in float64 in any order, and the means
    equal those of the rescaled image to the bit.

    Frames are grouped by shape and stacked at most ``CHUNK_VALUES`` float64
    values at a time.  Returns shape ``(len(frames), grid*grid, 3)``.
    """
    out = np.empty((len(frames), grid * grid, 3))
    groups: Dict[tuple, List[int]] = {}
    for i, frame in enumerate(frames):
        groups.setdefault(frame.shape, []).append(i)
    for shape, members in groups.items():
        channels = shape[2] if len(shape) == 3 else 1
        rows, wy, ny = _window_weights(shape[0], base_size, grid, sample_size)
        cols, wx, nx = _window_weights(shape[1], base_size, grid, sample_size)
        every = rows.size == shape[0] and cols.size == shape[1]
        counts = np.outer(ny, nx).reshape(1, grid * grid, 1)
        step = max(1, CHUNK_VALUES // max(1, rows.size * cols.size * channels))
        buf = np.empty((min(step, len(members)), rows.size, cols.size * channels))
        for start in range(0, len(members), step):
            part = members[start : start + step]
            stack = buf[: len(part)]
            for k, i in enumerate(part):
                pixels = frames[i].pixels
                if not every:
                    pixels = pixels.take(rows, axis=0).take(cols, axis=1)
                stack[k] = pixels.reshape(rows.size, -1)
            sums = (wy @ stack).reshape(len(part), grid, cols.size, channels)
            sums = np.swapaxes(np.swapaxes(sums, 2, 3) @ wx.T, 2, 3)
            # (k, gy, gx, c); a gray frame's RGB view repeats its one channel
            out[part] = sums.reshape(len(part), grid * grid, channels) / counts
    return out


def frame_signature(
    image: Image,
    base_size: int = BASE_SIZE,
    grid: int = GRID,
    sample_size: int = SAMPLE_SIZE,
) -> np.ndarray:
    """One frame's signature, ``frame_signatures([image])[0]``: shape ``(grid*grid, 3)``."""
    return frame_signatures([image], base_size, grid, sample_size)[0]


def frame_signature_distance(a: Image, b: Image, **kwargs) -> float:
    """Summed Euclidean distance between the two frames' 25-point signatures."""
    sa = frame_signature(a, **kwargs)
    sb = frame_signature(b, **kwargs)
    return float(np.sum(np.sqrt(np.sum((sa - sb) ** 2, axis=1))))


@dataclass(frozen=True)
class KeyFrameExtractor:
    """Configurable §4.1 extractor.

    ``threshold`` is the paper's 800.0 by default.  ``base_size`` may be
    lowered (e.g. to 64) to trade fidelity for speed; the signature is scale
    normalized so the threshold keeps its meaning.
    """

    threshold: float = PAPER_THRESHOLD
    base_size: int = BASE_SIZE
    grid: int = GRID
    sample_size: int = SAMPLE_SIZE

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.grid < 1 or self.base_size < self.grid:
            raise ValueError("grid must be >= 1 and base_size >= grid")

    def signature(self, frame: Image) -> np.ndarray:
        return self.signatures([frame])[0]

    def signatures(self, frames: Sequence[Image]) -> np.ndarray:
        sample = min(self.sample_size, max(1, self.base_size // (2 * self.grid)))
        return frame_signatures(frames, self.base_size, self.grid, sample)

    def extract(self, frames: Sequence[Image]) -> List[Tuple[int, Image]]:
        """Run the greedy similar-run collapse; returns ``(index, frame)`` pairs.

        The first frame is always a key frame (the paper: "take 1st as
        key-frame"), and every kept frame is the first of a maximal run whose
        members are all within ``threshold`` of it.
        """
        if not frames:
            return []
        signatures = self.signatures(frames)
        kept: List[Tuple[int, Image]] = []
        i = 0
        n = len(frames)
        while i < n:
            kept.append((i, frames[i]))
            j = i + 1
            while j < n:
                dist = float(
                    np.sum(np.sqrt(np.sum((signatures[i] - signatures[j]) ** 2, axis=1)))
                )
                if dist > self.threshold:
                    break
                j += 1
            i = j
        return kept


def extract_key_frames(
    frames: Sequence[Image], threshold: float = PAPER_THRESHOLD, **kwargs
) -> List[Tuple[int, Image]]:
    """Functional wrapper around :class:`KeyFrameExtractor`."""
    return KeyFrameExtractor(threshold=threshold, **kwargs).extract(frames)
