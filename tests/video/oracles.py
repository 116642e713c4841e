"""Reference implementations the vectorized write path is checked against.

These are the straightforward versions the production code replaced: a
per-run Python loop for RLE and a materialized nearest-neighbour rescale
followed by one window mean at a time for the §4.6 signature.  They live
here, not in ``repro``, so there is one production code path.
"""

from __future__ import annotations

import numpy as np

from repro.imaging.image import Image
from repro.imaging.resize import resize_array


def rle_encode(data: bytes) -> bytes:
    """Run-length encode bytes as (count, value) pairs, runs capped at 255."""
    if not data:
        return b""
    arr = np.frombuffer(data, dtype=np.uint8)
    change = np.nonzero(np.diff(arr))[0] + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [arr.size]))
    out = bytearray()
    for s, e in zip(starts, ends):
        value = arr[s]
        run = int(e - s)
        while run > 255:
            out.append(255)
            out.append(value)
            run -= 255
        out.append(run)
        out.append(value)
    return bytes(out)


def frame_signature(image: Image, base_size: int, grid: int, sample_size: int) -> np.ndarray:
    """25-point mean-color signature of one frame, shape ``(grid*grid, 3)``."""
    rgb = image.to_rgb()
    scaled = resize_array(rgb.pixels, base_size, base_size, "nearest").astype(np.float64)
    sig = np.empty((grid * grid, 3))
    k = 0
    for gy in range(grid):
        py = (gy + 0.5) / grid
        y0 = max(0, int(py * base_size) - sample_size)
        y1 = min(base_size, int(py * base_size) + sample_size)
        for gx in range(grid):
            px = (gx + 0.5) / grid
            x0 = max(0, int(px * base_size) - sample_size)
            x1 = min(base_size, int(px * base_size) + sample_size)
            sig[k] = scaled[y0:y1, x0:x1].reshape(-1, 3).mean(axis=0)
            k += 1
    return sig
