"""Tamura texture features.

The paper stores a ``tamura`` string per key frame; the §5.1 dump --
``Tamura 18 14620.0 44.25 1098.0 234.0 ... 258.0`` -- is an 18-vector:
coarseness, contrast, and a 16-bin directionality histogram, exactly the
layout LIRE's Tamura implementation produces.

The three measures follow Tamura, Mori & Yamawaki (1978):

- **Coarseness**: at every pixel, averages over 2^k windows are compared
  with neighbouring windows at distance 2^(k-1); the k maximizing the
  difference wins and coarseness is the mean of 2^k_best.  Window averages
  use an integral image, so the whole measure is O(K * pixels).
- **Contrast**: sigma / alpha4^(1/4) with alpha4 the kurtosis mu4/sigma^4 --
  spread of the gray histogram sharpened by its polarization.
- **Directionality**: a 16-bin histogram of gradient angles over pixels
  with meaningful gradient magnitude (Prewitt operators, as in Tamura's
  original).
"""

from __future__ import annotations

import numpy as np

from repro.features.base import FeatureExtractor, FeatureVector, register_extractor
from repro.imaging.image import Image

__all__ = ["TamuraTexture", "coarseness", "tamura_contrast", "directionality"]

def _integral(a: np.ndarray) -> np.ndarray:
    """Zero-padded summed-area table: ii[y, x] = sum of a[:y, :x]."""
    ii = np.zeros((a.shape[0] + 1, a.shape[1] + 1))
    np.cumsum(np.cumsum(a, axis=0), axis=1, out=ii[1:, 1:])
    return ii


def _window_mean(ii: np.ndarray, half: int, h: int, w: int) -> np.ndarray:
    """Mean over the (2*half)^2 window centred at each pixel (clipped)."""
    ys = np.arange(h)
    xs = np.arange(w)
    y0 = np.clip(ys - half, 0, h)[:, np.newaxis]
    y1 = np.clip(ys + half, 0, h)[:, np.newaxis]
    x0 = np.clip(xs - half, 0, w)[np.newaxis, :]
    x1 = np.clip(xs + half, 0, w)[np.newaxis, :]
    area = (y1 - y0) * (x1 - x0)
    # edge-padding turns the clipped gathers ii[clip(y +/- half), ...] into
    # four contiguous slices of the same values
    p = np.pad(ii, half, mode="edge")
    total = (
        p[2 * half : 2 * half + h, 2 * half : 2 * half + w]
        - p[:h, 2 * half : 2 * half + w]
        - p[2 * half : 2 * half + h, :w]
        + p[:h, :w]
    )
    return total / np.maximum(area, 1)


def coarseness(gray: np.ndarray, max_k: int = 5) -> float:
    """Tamura coarseness: mean over pixels of the best window size 2^k."""
    a = np.asarray(gray, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("coarseness expects a 2-D gray array")
    h, w = a.shape
    max_k = max(1, min(max_k, int(np.floor(np.log2(min(h, w)))) - 1))
    ii = _integral(a)

    best_e = np.full((h, w), -1.0)
    best_size = np.ones((h, w))
    for k in range(1, max_k + 1):
        half = 2 ** (k - 1)
        mean_k = _window_mean(ii, half, h, w)
        # horizontal / vertical differences of window means at distance 2^(k-1)
        eh = np.zeros((h, w))
        ev = np.zeros((h, w))
        if w > 2 * half:
            eh[:, half : w - half] = np.abs(mean_k[:, 2 * half :] - mean_k[:, : w - 2 * half])
        if h > 2 * half:
            ev[half : h - half, :] = np.abs(mean_k[2 * half :, :] - mean_k[: h - 2 * half, :])
        e = np.maximum(eh, ev)
        better = e > best_e
        best_e[better] = e[better]
        best_size[better] = 2.0**k
    return float(best_size.mean())


def tamura_contrast(gray: np.ndarray) -> float:
    """sigma / kurtosis^(1/4); zero for constant images."""
    a = np.asarray(gray, dtype=np.float64).ravel()
    mu = a.mean()
    d2 = np.square(a - mu)
    sigma2 = d2.mean()
    if sigma2 < 1e-12:
        return 0.0
    mu4 = np.mean(np.square(d2))
    alpha4 = mu4 / (sigma2**2)
    return float(np.sqrt(sigma2) / alpha4**0.25)


def _prewitt_sliced(a: np.ndarray):
    """Prewitt gradients via shifted slices over a reflect-padded frame
    (gray values are integers, so the regrouped sums are exact --
    identical to convolving with the 3x3 Prewitt kernels)."""
    h, w = a.shape
    p = np.pad(a, 1, mode="reflect") if min(h, w) > 1 else np.pad(a, 1)
    rowsum = p[:-2, :] + p[1:-1, :] + p[2:, :]
    colsum = p[:, :-2] + p[:, 1:-1] + p[:, 2:]
    gx = rowsum[:, :-2] - rowsum[:, 2:]
    gy = colsum[:-2, :] - colsum[2:, :]
    return gx, gy


def directionality(gray: np.ndarray, bins: int = 16, threshold: float = 12.0) -> np.ndarray:
    """16-bin histogram of gradient direction over sufficiently-edgy pixels.

    Angles are folded into [0, pi) (a direction, not an orientation sign).
    The returned histogram holds raw pixel counts, like the paper's dump.
    """
    gx, gy = _prewitt_sliced(np.asarray(gray, dtype=np.float64))
    mag = (np.abs(gx) + np.abs(gy)) / 2.0
    theta = np.mod(np.arctan2(gy, gx) + np.pi / 2.0, np.pi)  # edge direction
    strong = mag > threshold
    idx = np.minimum((theta[strong] * bins / np.pi).astype(np.int64), bins - 1)
    return np.bincount(idx, minlength=bins).astype(np.float64)


@register_extractor
class TamuraTexture(FeatureExtractor):
    """18-vector: ``[coarseness, contrast, dir_0 .. dir_15]``."""

    name = "tamura"
    tag = "Tamura"

    def __init__(self, bins: int = 16, edge_threshold: float = 12.0, max_k: int = 5):
        if bins < 2:
            raise ValueError("bins must be >= 2")
        self.bins = bins
        self.edge_threshold = edge_threshold
        self.max_k = max_k

    def extract(self, image: Image) -> FeatureVector:
        gray = image.gray()
        g = gray.astype(np.float64)
        values = np.empty(2 + self.bins)
        values[0] = coarseness(g, max_k=self.max_k)
        values[1] = tamura_contrast(g)
        values[2:] = directionality(g, bins=self.bins, threshold=self.edge_threshold)
        return FeatureVector(kind=self.name, values=values, tag=self.tag)

    def distance(self, a: FeatureVector, b: FeatureVector) -> float:
        """Canberra on (coarseness, contrast) + L1 on normalized direction hist."""
        self._check_pair(a, b)
        head_a, head_b = a.values[:2], b.values[:2]
        denom = np.abs(head_a) + np.abs(head_b)
        mask = denom > 1e-12
        d = float(np.sum(np.abs(head_a - head_b)[mask] / denom[mask]))
        ha = a.values[2:] / max(1e-12, a.values[2:].sum())
        hb = b.values[2:] / max(1e-12, b.values[2:].sum())
        return d + float(np.abs(ha - hb).sum())

    def batch_distance(self, q: FeatureVector, matrix: np.ndarray) -> np.ndarray:
        """Vectorized head-Canberra + normalized-histogram-L1 distances."""
        m = self._check_batch(q, matrix)
        return self.batch_distance_prepared(q, self.prepare_matrix(m))

    def prepare_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Raw (coarseness, contrast) head + row-normalized histograms."""
        m = np.asarray(matrix, dtype=np.float64)
        out = m.copy()
        out[:, 2:] = m[:, 2:] / np.maximum(m[:, 2:].sum(axis=1), 1e-12)[:, np.newaxis]
        return out

    def batch_distance_prepared(self, q: FeatureVector, prepared: np.ndarray) -> np.ndarray:
        from repro.similarity.measures import canberra_batch

        m = self._check_batch(q, prepared)
        head = canberra_batch(q.values[:2], m[:, :2])
        hq = q.values[2:] / max(1e-12, q.values[2:].sum())
        return head + np.abs(m[:, 2:] - hq).sum(axis=1)
