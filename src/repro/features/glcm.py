"""GLCM texture (paper §4.3).

The Gray Level Co-occurrence Matrix tabulates how often pairs of gray
levels co-occur at a fixed offset.  The paper accumulates symmetric
horizontal pairs (``glcm[a][b] += 1; glcm[b][a] += 1``), normalizes by the
pair counter, and derives five Haralick statistics: angular second moment
(ASM), contrast, correlation, inverse difference moment (IDM), and entropy.

The sample dump in §5.1 is six numbers --

    ``180000.0 0.0302 87.89 2.27e-4 0.5008 6.82``

i.e. ``pixelCounter asm contrast correlation IDM entropy`` computed on a
300x300 rescaled gray frame (pixelCounter = 2 pairs per pixel).  Note the
paper's pseudo-code divides correlation by the *product of variances*
(its ``stdevx`` accumulates squared deviations without a square root);
that convention is reproduced under ``paper_exact=True`` and explains the
tiny 2.27e-4 value, while the default computes the textbook correlation in
[-1, 1].
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

import numpy as np

from repro.features.base import FeatureExtractor, FeatureVector, register_extractor
from repro.imaging.image import Image
from repro.imaging.resize import resize_array

__all__ = ["GlcmTexture", "glcm_matrix", "glcm_statistics"]

#: Order of the statistics in the feature vector (after pixelCounter).
STATISTIC_NAMES = ("asm", "contrast", "correlation", "idm", "entropy")


def glcm_matrix(gray: np.ndarray, step: int = 1, levels: int = 256) -> np.ndarray:
    """Symmetric, normalized horizontal co-occurrence matrix.

    Pairs are ``(pixel[y, x], pixel[y, x + step])`` accumulated in both
    orders, then divided by the total number of entries (the paper's
    ``pixelCounter``).  Returns a ``(levels, levels)`` float64 matrix whose
    entries sum to 1.
    """
    a = np.asarray(gray)
    if a.ndim != 2:
        raise ValueError("glcm_matrix expects a 2-D gray array")
    if step < 1 or step >= a.shape[1]:
        raise ValueError(f"step must be in [1, width); got {step}")
    # one narrow-int conversion; counts are exact integers
    ai = a.astype(np.int32)
    left = ai[:, :-step]
    right = ai[:, step:]
    if levels != 256:
        left = left * levels // 256
        right = right * levels // 256
    flat = left * np.int32(levels) + right
    counts = np.bincount(flat.ravel(), minlength=levels * levels)
    glcm = counts.reshape(levels, levels)
    glcm = glcm + glcm.T  # symmetric accumulation, 2 entries per pair
    total = float(glcm.sum())
    return glcm / total if total > 0 else glcm.astype(np.float64)


_GRID_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_GRID_LOCK = threading.Lock()  # web threads and pool workers share the cache


def _cached_grids(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant ``(levels, (a-b)^2, 1/(1+(a-b)^2))`` grids for an n-level GLCM."""
    grids = _GRID_CACHE.get(n)
    if grids is None:
        levels = np.arange(n, dtype=np.float64)
        d2 = (levels[:, np.newaxis] - levels[np.newaxis, :]) ** 2
        grids = (levels, d2, 1.0 / (1.0 + d2))
        with _GRID_LOCK:
            if len(_GRID_CACHE) > 4:
                _GRID_CACHE.clear()
            _GRID_CACHE[n] = grids
    return grids


def glcm_statistics(glcm: np.ndarray, paper_exact: bool = False) -> dict:
    """The five Haralick statistics of a normalized GLCM.

    Moments come from the two marginals (O(n) work after two reductions)
    and the constant ``(a-b)^2`` / IDM weight grids are cached per size.
    """
    p = np.asarray(glcm, dtype=np.float64)
    n = p.shape[0]
    levels, d2, idm_w = _cached_grids(n)
    row = p.sum(axis=1)
    col = p.sum(axis=0)
    asm = float(np.einsum("ij,ij->", p, p))
    contrast = float(np.einsum("ij,ij->", d2, p))
    px = float(levels @ row)
    py = float(levels @ col)
    varx = float((levels - px) ** 2 @ row)
    vary = float((levels - py) ** 2 @ col)
    cov = float(levels @ p @ levels) - px * py
    if paper_exact:
        denom = varx * vary  # the pseudo-code's variance product
    else:
        denom = float(np.sqrt(varx * vary))
    correlation = cov / denom if denom > 1e-18 else 0.0
    idm = float(np.einsum("ij,ij->", idm_w, p))
    logs = np.log(p, out=np.zeros_like(p), where=p > 0)
    entropy = float(-np.einsum("ij,ij->", p, logs))
    return {
        "asm": asm,
        "contrast": contrast,
        "correlation": correlation,
        "idm": idm,
        "entropy": entropy,
    }


@register_extractor
class GlcmTexture(FeatureExtractor):
    """§4.3 extractor: 6-vector ``[pixelCounter, asm, contrast, corr, idm, entropy]``.

    ``preprocess=True`` (paper default) converts to gray with the paper's
    luminance matrix and rescales to ``base_size`` square so the statistics
    are comparable across frame sizes.
    """

    name = "glcm"
    tag = "GLCM"

    def __init__(
        self,
        step: int = 1,
        levels: int = 256,
        preprocess: bool = True,
        base_size: int = 300,
        paper_exact: bool = False,
    ):
        if levels < 2 or levels > 256:
            raise ValueError("levels must be in [2, 256]")
        self.step = step
        self.levels = levels
        self.preprocess = preprocess
        self.base_size = base_size
        self.paper_exact = paper_exact

    def _prepare(self, image: Image) -> np.ndarray:
        gray = image.gray()
        if self.preprocess:
            gray = resize_array(gray, self.base_size, self.base_size, "nearest")
        return gray

    def extract(self, image: Image) -> FeatureVector:
        gray = self._prepare(image)
        glcm = glcm_matrix(gray, step=self.step, levels=self.levels)
        stats = glcm_statistics(glcm, paper_exact=self.paper_exact)
        pixel_counter = float(2 * (gray.shape[1] - self.step) * gray.shape[0])
        values = [pixel_counter] + [stats[k] for k in STATISTIC_NAMES]
        return FeatureVector(kind=self.name, values=np.array(values), tag=self.tag)

    def distance(self, a: FeatureVector, b: FeatureVector) -> float:
        """Canberra distance over the five statistics (pixelCounter excluded).

        Canberra normalizes each component by its own magnitude, which keeps
        the wildly different scales of contrast (~1e2) and ASM (~1e-2) from
        drowning each other out.
        """
        self._check_pair(a, b)
        va, vb = a.values[1:], b.values[1:]
        denom = np.abs(va) + np.abs(vb)
        mask = denom > 1e-12
        return float(np.sum(np.abs(va - vb)[mask] / denom[mask]))

    def batch_distance(self, q: FeatureVector, matrix: np.ndarray) -> np.ndarray:
        """Vectorized Canberra distances (pixelCounter column excluded)."""
        from repro.similarity.measures import canberra_batch

        m = self._check_batch(q, matrix)
        return canberra_batch(q.values[1:], m[:, 1:])
