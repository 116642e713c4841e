"""Reference imaging/feature kernels the production code is checked against.

Each function is the straightforward form a vectorized kernel replaced:
``np.clip`` clamps, masked-assignment HSV, a materialized nearest-neighbour
gather, the per-threshold fuzziness loop, integral-image gathers, the
fourth-power contrast moments, Prewitt by convolution, the grid-based
Haralick statistics and the per-offset correlogram loop.  They live here,
not in ``repro``, so there is one production code path.

:func:`reference_kernels` swaps them into the extractors' modules, plus the
NumPy fallbacks of the Gabor bank and region labelling (``HAVE_SCIPY``
off), so a whole extractor can be run on the reference forms.
"""

from __future__ import annotations

import numpy as np

from repro.imaging.filters import convolve2d
from repro.imaging.resize import nearest_indices

_PREWITT_X = np.array([[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]])
_PREWITT_Y = _PREWITT_X.T.copy()


def rgb_to_gray(rgb: np.ndarray) -> np.ndarray:
    arr = np.asarray(rgb)
    if arr.ndim == 2:
        return arr.astype(np.uint8, copy=False)
    gray = arr.astype(np.float64) @ np.asarray((0.299, 0.587, 0.114))
    return np.clip(np.rint(gray), 0, 255).astype(np.uint8)


def rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    arr = np.asarray(rgb, dtype=np.float64) / 255.0
    r, g, b = arr[..., 0], arr[..., 1], arr[..., 2]
    maxc = np.max(arr, axis=-1)
    minc = np.min(arr, axis=-1)
    delta = maxc - minc
    nz = delta > 0
    rmax = nz & (maxc == r)
    gmax = nz & (maxc == g) & ~rmax
    bmax = nz & ~rmax & ~gmax
    h = np.zeros_like(maxc)
    h[rmax] = np.mod((g[rmax] - b[rmax]) / delta[rmax], 6.0)
    h[gmax] = (b[gmax] - r[gmax]) / delta[gmax] + 2.0
    h[bmax] = (r[bmax] - g[bmax]) / delta[bmax] + 4.0
    h *= 60.0
    s = np.zeros_like(maxc)
    vs = maxc > 0
    s[vs] = delta[vs] / maxc[vs]
    return np.stack([h, s, maxc], axis=-1)


def quantize_uniform(values: np.ndarray, levels: int, maximum: float = 255.0) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    idx = np.floor(arr * levels / (maximum + 1e-12)).astype(np.int64)
    return np.clip(idx, 0, levels - 1)


def resize_nearest(arr: np.ndarray, width: int, height: int) -> np.ndarray:
    src_h, src_w = arr.shape[:2]
    if (src_h, src_w) == (height, width):
        return arr.copy()
    rows = nearest_indices(src_h, height)
    cols = nearest_indices(src_w, width)
    return arr[np.ix_(rows, cols)] if arr.ndim == 2 else arr[rows][:, cols]


def resize_array(arr, width, height, interpolation="nearest"):
    assert interpolation == "nearest"
    return resize_nearest(arr, width, height)


def min_fuzziness_threshold(hist: np.ndarray) -> int:
    hist = np.asarray(hist, dtype=np.float64)
    total = hist.sum()
    nz = np.nonzero(hist)[0]
    first, last = int(nz[0]), int(nz[-1])
    if first == last:
        return first
    levels = np.arange(hist.size, dtype=np.float64)
    cum_n = np.cumsum(hist)
    cum_s = np.cumsum(hist * levels)
    c = float(last - first)
    best_t, best_e = first, np.inf
    for t in range(first, last):
        n0 = cum_n[t]
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            continue
        mu0 = cum_s[t] / n0
        mu1 = (cum_s[-1] - cum_s[t]) / n1
        mem = np.empty(hist.size)
        mem[: t + 1] = 1.0 / (1.0 + np.abs(levels[: t + 1] - mu0) / c)
        mem[t + 1 :] = 1.0 / (1.0 + np.abs(levels[t + 1 :] - mu1) / c)
        mem = np.clip(mem, 1e-12, 1 - 1e-12)
        entropy = -(mem * np.log(mem) + (1 - mem) * np.log(1 - mem))
        e = float(np.dot(hist, entropy))
        if e < best_e:
            best_e, best_t = e, t
    return int(best_t)


def window_mean(ii: np.ndarray, half: int, h: int, w: int) -> np.ndarray:
    ys = np.arange(h)
    xs = np.arange(w)
    y0 = np.clip(ys - half, 0, h)[:, np.newaxis]
    y1 = np.clip(ys + half, 0, h)[:, np.newaxis]
    x0 = np.clip(xs - half, 0, w)[np.newaxis, :]
    x1 = np.clip(xs + half, 0, w)[np.newaxis, :]
    area = (y1 - y0) * (x1 - x0)
    total = ii[y1, x1] - ii[y0, x1] - ii[y1, x0] + ii[y0, x0]
    return total / np.maximum(area, 1)


def tamura_contrast(gray: np.ndarray) -> float:
    a = np.asarray(gray, dtype=np.float64).ravel()
    mu = a.mean()
    sigma2 = np.mean((a - mu) ** 2)
    if sigma2 < 1e-12:
        return 0.0
    mu4 = np.mean((a - mu) ** 4)
    alpha4 = mu4 / (sigma2**2)
    return float(np.sqrt(sigma2) / alpha4**0.25)


def directionality(gray: np.ndarray, bins: int = 16, threshold: float = 12.0) -> np.ndarray:
    a = np.asarray(gray, dtype=np.float64)
    gx = convolve2d(a, _PREWITT_X)
    gy = convolve2d(a, _PREWITT_Y)
    mag = (np.abs(gx) + np.abs(gy)) / 2.0
    theta = np.mod(np.arctan2(gy, gx) + np.pi / 2.0, np.pi)
    strong = mag > threshold
    idx = np.minimum((theta[strong] * bins / np.pi).astype(np.int64), bins - 1)
    return np.bincount(idx, minlength=bins).astype(np.float64)


def glcm_matrix(gray: np.ndarray, step: int = 1, levels: int = 256) -> np.ndarray:
    a = np.asarray(gray)
    left = a[:, :-step].astype(np.int64)
    right = a[:, step:].astype(np.int64)
    if levels != 256:
        left = left * levels // 256
        right = right * levels // 256
    flat = left * levels + right
    counts = np.bincount(flat.ravel(), minlength=levels * levels).astype(np.float64)
    glcm = counts.reshape(levels, levels)
    glcm = glcm + glcm.T
    total = glcm.sum()
    return glcm / total if total > 0 else glcm


def glcm_statistics(glcm: np.ndarray, paper_exact: bool = False) -> dict:
    p = np.asarray(glcm, dtype=np.float64)
    levels = np.arange(p.shape[0], dtype=np.float64)
    a = levels[:, np.newaxis]
    b = levels[np.newaxis, :]
    asm = float(np.sum(p * p))
    contrast = float(np.sum((a - b) ** 2 * p))
    px = float(np.sum(a * p))
    py = float(np.sum(b * p))
    varx = float(np.sum((a - px) ** 2 * p))
    vary = float(np.sum((b - py) ** 2 * p))
    cov = float(np.sum((a - px) * (b - py) * p))
    denom = varx * vary if paper_exact else float(np.sqrt(varx * vary))
    correlation = cov / denom if denom > 1e-18 else 0.0
    idm = float(np.sum(p / (1.0 + (a - b) ** 2)))
    nz = p > 0
    entropy = float(-np.sum(p[nz] * np.log(p[nz])))
    return {
        "asm": asm,
        "contrast": contrast,
        "correlation": correlation,
        "idm": idm,
        "entropy": entropy,
    }


def correlogram_counts(quantized: np.ndarray, n_colors: int, max_distance: int) -> np.ndarray:
    from repro.features.correlogram import ring_offsets

    q = np.asarray(quantized)
    h, w = q.shape
    counts = np.zeros((n_colors, max_distance), dtype=np.float64)
    for d in range(1, max_distance + 1):
        for dx, dy in ring_offsets(d):
            # overlap region of the image with itself shifted by (dx, dy)
            y0a, y1a = max(0, -dy), h - max(0, dy)
            x0a, x1a = max(0, -dx), w - max(0, dx)
            if y0a >= y1a or x0a >= x1a:
                continue
            a = q[y0a:y1a, x0a:x1a]
            b = q[y0a + dy : y1a + dy, x0a + dx : x1a + dx]
            same = a == b
            if not same.any():
                continue
            counts[:, d - 1] += np.bincount(a[same].ravel(), minlength=n_colors)
    return counts


def reference_kernels(monkeypatch) -> None:
    """Point the extractors at the reference kernels for this test.

    Each kernel is patched where the production code looks it up (a
    module global at call time), and ``HAVE_SCIPY`` is cleared so the
    Gabor bank and region labelling take their NumPy forms.
    """
    from repro.features import correlogram, glcm, tamura
    from repro.imaging import accel, color, threshold

    monkeypatch.setattr(accel, "HAVE_SCIPY", False)
    monkeypatch.setattr(color, "rgb_to_gray", rgb_to_gray)
    monkeypatch.setattr(color, "rgb_to_hsv", rgb_to_hsv)
    monkeypatch.setattr(color, "quantize_uniform", quantize_uniform)
    monkeypatch.setattr(threshold, "min_fuzziness_threshold", min_fuzziness_threshold)
    monkeypatch.setattr(tamura, "_window_mean", window_mean)
    monkeypatch.setattr(tamura, "tamura_contrast", tamura_contrast)
    monkeypatch.setattr(tamura, "directionality", directionality)
    monkeypatch.setattr(glcm, "resize_array", resize_array)
    monkeypatch.setattr(glcm, "glcm_matrix", glcm_matrix)
    monkeypatch.setattr(glcm, "glcm_statistics", glcm_statistics)
    monkeypatch.setattr(correlogram, "correlogram_counts", correlogram_counts)
