"""Automatic thresholding.

§4.8 binarizes via JAI's ``Histogram.getMinFuzzinessThreshold()``, which is
Huang & Wang's minimum-fuzziness method: for each candidate threshold, pixels
get a membership value to their side's mean, and the threshold minimizing the
total Shannon fuzziness entropy is chosen.  Otsu's method is provided as a
cross-check.
"""

from __future__ import annotations

import numpy as np

__all__ = ["min_fuzziness_threshold", "otsu_threshold", "binarize"]


def min_fuzziness_threshold(hist: np.ndarray) -> int:
    """Huang minimum-fuzziness threshold over a 256-bin histogram.

    Returns the threshold ``t`` such that pixels ``<= t`` are background.
    For a constant image (all mass in one bin) the bin index is returned.
    """
    hist = np.asarray(hist, dtype=np.float64)
    if hist.ndim != 1 or hist.size < 2:
        raise ValueError("histogram must be 1-D with at least 2 bins")
    total = hist.sum()
    if total <= 0:
        raise ValueError("histogram is empty")

    nz = np.nonzero(hist)[0]
    first, last = int(nz[0]), int(nz[-1])
    if first == last:
        return first

    levels = np.arange(hist.size, dtype=np.float64)
    cum_n = np.cumsum(hist)  # cumulative counts and intensity sums
    cum_s = np.cumsum(hist * levels)
    c = float(last - first)  # normalizer so memberships stay in [0.5, 1]

    # every candidate threshold in one pass, keeping the first minimum
    ts = np.arange(first, last)
    n0 = cum_n[ts]
    n1 = total - n0
    valid = (n0 > 0) & (n1 > 0)
    mu0 = cum_s[ts] / np.where(n0 > 0, n0, 1.0)
    mu1 = (cum_s[-1] - cum_s[ts]) / np.where(n1 > 0, n1, 1.0)
    grid = levels[np.newaxis, :]
    # membership of level g to its class mean: select the mean first, then
    # evaluate the membership formula once
    mu = np.where(grid <= ts[:, np.newaxis], mu0[:, np.newaxis], mu1[:, np.newaxis])
    mem = 1.0 / (1.0 + np.abs(grid - mu) / c)
    mem = np.clip(mem, 1e-12, 1 - 1e-12)
    entropy = -(mem * np.log(mem) + (1 - mem) * np.log(1 - mem))
    e = entropy @ hist
    e[~valid] = np.inf
    return int(ts[np.argmin(e)])


def otsu_threshold(hist: np.ndarray) -> int:
    """Otsu's between-class-variance-maximizing threshold."""
    hist = np.asarray(hist, dtype=np.float64)
    total = hist.sum()
    if total <= 0:
        raise ValueError("histogram is empty")
    levels = np.arange(hist.size, dtype=np.float64)
    w0 = np.cumsum(hist)
    s0 = np.cumsum(hist * levels)
    w1 = total - w0
    mu_total = s0[-1]
    valid = (w0 > 0) & (w1 > 0)
    mu0 = np.where(w0 > 0, s0 / np.maximum(w0, 1e-12), 0.0)
    mu1 = np.where(w1 > 0, (mu_total - s0) / np.maximum(w1, 1e-12), 0.0)
    between = w0 * w1 * (mu0 - mu1) ** 2
    between[~valid] = -1.0
    return int(np.argmax(between))


def binarize(gray: np.ndarray, threshold: float = None) -> np.ndarray:
    """Binarize a gray array: pixel > threshold -> True (foreground).

    With ``threshold=None`` the minimum-fuzziness threshold of the image's
    own 256-bin histogram is used, replicating §4.8's preprocessor.
    """
    a = np.asarray(gray)
    if a.ndim != 2:
        raise ValueError("binarize expects a 2-D gray array")
    if threshold is None:
        hist = np.bincount(a.astype(np.uint8).ravel(), minlength=256)
        threshold = min_fuzziness_threshold(hist)
    return a > threshold
