"""Image rescaling.

The paper's key-frame extractor and naive-signature descriptor both begin by
rescaling frames ("Scales the original image ... Adding filter
InterpolationNearest for scaling", §4.6) -- to 300x300 with nearest-neighbour
interpolation.  Bilinear is provided as well for the synthetic generator's
smooth zooms.
"""

from __future__ import annotations

import numpy as np

from repro.imaging.image import Image

__all__ = ["nearest_indices", "resize", "resize_array"]


def nearest_indices(src: int, dst: int) -> np.ndarray:
    """Source indices chosen by nearest-neighbour for a dst-length axis."""
    # Sample at pixel centers: position (i + 0.5) * src/dst maps to floor().
    return np.minimum((np.arange(dst) + 0.5) * (src / dst), src - 1).astype(np.int64)


def resize_array(
    arr: np.ndarray, width: int, height: int, interpolation: str = "nearest"
) -> np.ndarray:
    """Resize a ``(h, w[, c])`` array to ``(height, width[, c])``."""
    if width <= 0 or height <= 0:
        raise ValueError(f"target size must be positive, got {width}x{height}")
    if interpolation not in ("nearest", "bilinear"):
        raise ValueError(f"unknown interpolation {interpolation!r}")
    src_h, src_w = arr.shape[:2]
    if (src_h, src_w) == (height, width):
        return arr.copy()

    if interpolation == "nearest":
        rows = nearest_indices(src_h, height)
        cols = nearest_indices(src_w, width)
        return arr.take(rows, axis=0).take(cols, axis=1)

    # bilinear
    out_dtype = arr.dtype
    a = arr.astype(np.float64)
    ys = (np.arange(height) + 0.5) * (src_h / height) - 0.5
    xs = (np.arange(width) + 0.5) * (src_w / width) - 0.5
    ys = np.clip(ys, 0, src_h - 1)
    xs = np.clip(xs, 0, src_w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, src_h - 1)
    x1 = np.minimum(x0 + 1, src_w - 1)
    wy = (ys - y0)[:, np.newaxis]
    wx = (xs - x0)[np.newaxis, :]
    if arr.ndim == 3:
        wy = wy[..., np.newaxis]
        wx = wx[..., np.newaxis]

    top = a[y0][:, x0] * (1 - wx) + a[y0][:, x1] * wx
    bottom = a[y1][:, x0] * (1 - wx) + a[y1][:, x1] * wx
    out = top * (1 - wy) + bottom * wy
    if np.issubdtype(out_dtype, np.integer):
        return np.clip(np.rint(out), 0, 255).astype(out_dtype)
    return out.astype(out_dtype)


def resize(image: Image, width: int, height: int, interpolation: str = "nearest") -> Image:
    """Resize an :class:`Image` to ``width x height``.

    ``interpolation`` is ``'nearest'`` (the paper's choice) or ``'bilinear'``.
    """
    return Image(resize_array(image.pixels, width, height, interpolation))
