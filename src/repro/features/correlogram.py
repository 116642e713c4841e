"""Auto color correlogram (paper §4.7).

"A color correlogram expresses how the spatial correlation of pairs of
colors changes with distance."  The paper's pseudo-code:

1. quantize every pixel in HSV space (64 bins here: 8 hue x 4 sat x 2 val);
2. for each pixel, count same-color pixels in the L-inf ring at each
   distance ``d in 1..maxDistance`` (``getNumPixelsInNeighbourhood``);
3. accumulate per (color, distance) and normalize each distance column by
   its maximum over colors (steps 11-13 of the listing).

The §5.1 dump starts ``ACC 4 0.7046 ...`` -- maxDistance 4, values in
[0, 1].  Besides the paper's max normalization, the classic probability
normalization of Huang et al. (divide by ``hist[c] * 8d``) is available as
``normalization='probability'``.

Counting is vectorized: a ring at distance d has 8d offsets; every
offset's shifted image is compared against the image in one pass, and
each ring's matches are histogrammed by color with one ``bincount``.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.features.base import FeatureExtractor, FeatureVector, register_extractor
from repro.imaging.color import quantize_hsv
from repro.imaging.image import Image

__all__ = ["AutoColorCorrelogram", "correlogram_counts", "ring_offsets"]


def ring_offsets(d: int):
    """The 8d offsets forming the L-inf ring at distance ``d``."""
    if d < 1:
        raise ValueError("distance must be >= 1")
    offsets = []
    for dx in range(-d, d + 1):
        offsets.append((dx, -d))
        offsets.append((dx, d))
    for dy in range(-d + 1, d):
        offsets.append((-d, dy))
        offsets.append((d, dy))
    return offsets


_RING_INDEX_CACHE: dict = {}
_RING_INDEX_LOCK = threading.Lock()  # web threads and pool workers share the cache


def _ring_indices(max_distance: int):
    """Cached per-distance ``(rows, cols)`` into a ``(2D+1, 2D+1)`` shift
    grid centered at ``(D, D)``, one pair per :func:`ring_offsets` entry."""
    rings = _RING_INDEX_CACHE.get(max_distance)
    if rings is None:
        d_max = max_distance
        rings = []
        for d in range(1, d_max + 1):
            offsets = np.asarray(ring_offsets(d))
            rings.append((d_max + offsets[:, 1], d_max + offsets[:, 0]))
        with _RING_INDEX_LOCK:
            _RING_INDEX_CACHE[max_distance] = rings
    return rings


def correlogram_counts(quantized: np.ndarray, n_colors: int, max_distance: int) -> np.ndarray:
    """Raw same-color pair counts: shape ``(n_colors, max_distance)``.

    ``counts[c, d-1]`` = number of ordered pixel pairs (p, q) with
    ``color(p) == color(q) == c`` and ``max(|dx|, |dy|) == d`` (q inside the
    image).

    All shifts are counted at once: the image is padded with a sentinel
    color so out-of-image neighbours can never match, and
    ``sliding_window_view`` exposes every shift in ``[-D, D]^2`` as one
    ``(2D+1, 2D+1, h, w)`` stack.  A single vectorized equality against the
    unshifted image replaces a per-offset loop; each ring then reduces its
    8d shift planes and histograms by color.  All quantities are small
    integer counts, so the float64 bincount accumulation is exact.
    """
    from numpy.lib.stride_tricks import sliding_window_view

    q = np.asarray(quantized)
    if q.ndim != 2:
        raise ValueError("quantized must be a 2-D index array")
    if not q.size:
        return np.zeros((n_colors, max_distance), dtype=np.float64)
    h, w = q.shape
    d_max = max_distance
    padded = np.full((h + 2 * d_max, w + 2 * d_max), n_colors, dtype=q.dtype)
    padded[d_max : d_max + h, d_max : d_max + w] = q
    windows = sliding_window_view(padded, (h, w))
    same = windows == q

    flat_q = q.ravel()
    counts = np.empty((n_colors, d_max), dtype=np.float64)
    for d, (rows, cols) in enumerate(_ring_indices(d_max), start=1):
        ring = same[rows, cols].sum(axis=0, dtype=np.int64)
        counts[:, d - 1] = np.bincount(
            flat_q, weights=ring.ravel().astype(np.float64), minlength=n_colors
        )
    return counts


@register_extractor
class AutoColorCorrelogram(FeatureExtractor):
    """§4.7 extractor: flattened ``(n_colors, max_distance)`` correlogram.

    ``normalization``:

    - ``'max'`` (paper): each distance column divided by its max over colors.
    - ``'probability'``: counts divided by ``hist[c] * 8d`` -- the
      conditional probability that a pixel at distance d has the same color.
    """

    name = "acc"
    tag = "ACC"

    def __init__(
        self,
        max_distance: int = 4,
        h_bins: int = 8,
        s_bins: int = 4,
        v_bins: int = 2,
        normalization: str = "max",
    ):
        if max_distance < 1:
            raise ValueError("max_distance must be >= 1")
        if normalization not in ("max", "probability"):
            raise ValueError(f"unknown normalization {normalization!r}")
        self.max_distance = max_distance
        self.h_bins = h_bins
        self.s_bins = s_bins
        self.v_bins = v_bins
        self.normalization = normalization

    @property
    def n_colors(self) -> int:
        return self.h_bins * self.s_bins * self.v_bins

    def extract(self, image: Image) -> FeatureVector:
        rgb = image.to_rgb().pixels
        quantized = quantize_hsv(rgb, self.h_bins, self.s_bins, self.v_bins)
        counts = correlogram_counts(quantized, self.n_colors, self.max_distance)
        if self.normalization == "max":
            col_max = counts.max(axis=0)
            corr = counts / np.maximum(col_max, 1e-12)[np.newaxis, :]
        else:
            hist = np.bincount(quantized.ravel(), minlength=self.n_colors).astype(np.float64)
            ring_sizes = 8.0 * np.arange(1, self.max_distance + 1)
            denom = hist[:, np.newaxis] * ring_sizes[np.newaxis, :]
            corr = counts / np.maximum(denom, 1e-12)
        return FeatureVector(kind=self.name, values=corr.ravel(), tag=self.tag)

    def distance(self, a: FeatureVector, b: FeatureVector) -> float:
        """L1 distance, the measure used in the original correlogram paper."""
        self._check_pair(a, b)
        return float(np.abs(a.values - b.values).sum())

    def batch_distance(self, q: FeatureVector, matrix: np.ndarray) -> np.ndarray:
        """Vectorized L1 distances against a stacked matrix."""
        from repro.similarity.measures import l1_batch

        return l1_batch(q.values, self._check_batch(q, matrix))
