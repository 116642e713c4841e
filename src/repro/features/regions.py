"""Simple region growing (paper §4.8).

The pipeline reproduces the paper's preprocessor and labelling loop:

1. convert to gray with the ``{0.114, 0.587, 0.299}`` band-combine matrix;
2. binarize at the histogram's minimum-fuzziness threshold (JAI's
   ``getMinFuzzinessThreshold``);
3. morphologically clean with the 5x5 kernel: dilate, erode, erode, dilate
   (a close followed by an open);
4. label connected components of the binary image with a classic
   stack-based region grow (8-connectivity: the pseudo-code scans the full
   ``-1..1`` neighbour box).  Components of 0-valued (background) pixels
   whose seed is a 0 pixel increment the hole counter, exactly as the
   listing's ``if (pixels[w][h]==0) numhole++``.

The feature is ``[numberOfRegions, numHoles, majorRegions]`` where a major
region covers at least ``major_fraction`` of the frame (the paper stores
``MAJORREGIONS`` as a NUMBER column; its sample query frame yields 2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.features.base import FeatureExtractor, FeatureVector, register_extractor
from repro.imaging import accel
from repro.imaging.image import Image
from repro.imaging.morphology import PAPER_KERNEL, binary_dilate, binary_erode
from repro.imaging.threshold import binarize

__all__ = ["SimpleRegionGrowing", "RegionGrowingResult", "label_regions", "preprocess_binary"]

_NEIGHBORS_8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
_NEIGHBORS_4 = [(-1, 0), (0, -1), (0, 1), (1, 0)]


@dataclass(frozen=True)
class RegionGrowingResult:
    """Labelling outcome: label map plus the §4.8 counters."""

    labels: np.ndarray
    n_regions: int
    n_holes: int
    region_sizes: Dict[int, int]

    def major_regions(self, min_pixels: int) -> int:
        """Number of regions with at least ``min_pixels`` pixels."""
        return sum(1 for size in self.region_sizes.values() if size >= min_pixels)


def label_regions(binary: np.ndarray, connectivity: int = 8) -> RegionGrowingResult:
    """Region labelling over a binary image (both pixel values).

    Components are maximal same-value regions.  Every component gets a label
    starting at 1, assigned in raster-scan order of the component's first
    pixel (exactly what the paper's seed-scan region grow produces);
    components seeded on a 0 (background) pixel also count as holes,
    following the paper's listing.  With SciPy installed this labels with
    ``scipy.ndimage``; without it, with the paper's stack-based grow.
    Both yield identical results.
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    pixels = np.asarray(binary)
    if pixels.ndim != 2:
        raise ValueError("label_regions expects a 2-D array")
    pixels = pixels.astype(np.uint8)
    if accel.HAVE_SCIPY:
        return _label_regions_scipy(pixels, connectivity)
    return _label_regions_grow(pixels, connectivity)


def _label_regions_scipy(pixels: np.ndarray, connectivity: int) -> RegionGrowingResult:
    """Connected components via ``scipy.ndimage.label``, renumbered to match
    the stack-based grow's raster-scan label order."""
    import scipy.ndimage as ndimage

    structure = np.ones((3, 3), dtype=bool)
    if connectivity == 4:
        structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

    h, w = pixels.shape
    if pixels.size == 0:
        return RegionGrowingResult(
            labels=np.full((h, w), -1, dtype=np.int32),
            n_regions=0,
            n_holes=0,
            region_sizes={},
        )
    # one labelling per distinct pixel value: components are maximal
    # same-value regions, so values must not merge across each other
    combined = np.zeros((h, w), dtype=np.int64)
    hole_values: Dict[int, bool] = {}
    offset = 0
    for value in np.unique(pixels):
        lab, n = ndimage.label(pixels == value, structure=structure)
        combined[lab > 0] = lab[lab > 0] + offset
        for comp in range(offset + 1, offset + n + 1):
            hole_values[comp] = value == 0
        offset += n

    # renumber so labels follow the raster-scan order of each component's
    # first pixel, matching the stack-based grow's seed loop
    flat = combined.ravel()
    comp_ids, first_flat = np.unique(flat, return_index=True)
    order = np.argsort(first_flat, kind="stable")
    rank = np.empty(comp_ids.size, dtype=np.int32)
    rank[order] = np.arange(1, comp_ids.size + 1)
    lookup = np.zeros(int(comp_ids.max()) + 1, dtype=np.int32)
    lookup[comp_ids] = rank
    labels = lookup[flat].reshape(h, w)

    counts = np.bincount(labels.ravel())
    sizes = {int(label): int(counts[label]) for label in range(1, counts.size)}
    n_holes = sum(
        1
        for comp, is_hole in hole_values.items()
        if is_hole and lookup[comp] > 0
    )
    return RegionGrowingResult(
        labels=labels,
        n_regions=len(sizes),
        n_holes=n_holes,
        region_sizes=sizes,
    )


def _label_regions_grow(pixels: np.ndarray, connectivity: int) -> RegionGrowingResult:
    """The paper's stack-based region grow (the no-SciPy path)."""
    neighbors = _NEIGHBORS_8 if connectivity == 8 else _NEIGHBORS_4
    h, w = pixels.shape
    labels = np.full((h, w), -1, dtype=np.int32)
    n_regions = 0
    n_holes = 0
    sizes: Dict[int, int] = {}

    for y in range(h):
        for x in range(w):
            if labels[y, x] >= 0:
                continue
            n_regions += 1
            if pixels[y, x] == 0:
                n_holes += 1
            label = n_regions
            value = pixels[y, x]
            labels[y, x] = label
            count = 1
            stack = deque([(y, x)])
            while stack:
                cy, cx = stack.popleft()
                for dy, dx in neighbors:
                    ny, nx = cy + dy, cx + dx
                    if 0 <= ny < h and 0 <= nx < w and labels[ny, nx] < 0 and pixels[ny, nx] == value:
                        labels[ny, nx] = label
                        count += 1
                        stack.append((ny, nx))
            sizes[label] = count
    return RegionGrowingResult(labels=labels, n_regions=n_regions, n_holes=n_holes, region_sizes=sizes)


def preprocess_binary(image: Image, threshold: float = None) -> np.ndarray:
    """§4.8 preprocessor: gray -> fuzzy-threshold binarize -> close -> open."""
    gray = image.gray()
    binary = binarize(gray, threshold)
    binary = binary_dilate(binary, PAPER_KERNEL)
    binary = binary_erode(binary, PAPER_KERNEL)
    binary = binary_erode(binary, PAPER_KERNEL)
    binary = binary_dilate(binary, PAPER_KERNEL)
    return binary


@register_extractor
class SimpleRegionGrowing(FeatureExtractor):
    """§4.8 extractor: ``[n_regions, n_holes, major_regions]``."""

    name = "regions"
    tag = "Regions"

    def __init__(self, major_fraction: float = 0.05, connectivity: int = 8):
        if not 0 < major_fraction <= 1:
            raise ValueError("major_fraction must be in (0, 1]")
        self.major_fraction = major_fraction
        self.connectivity = connectivity

    def analyze(self, image: Image) -> RegionGrowingResult:
        """Run the full pipeline and return the labelling result."""
        binary = preprocess_binary(image)
        return label_regions(binary, self.connectivity)

    def extract(self, image: Image) -> FeatureVector:
        result = self.analyze(image)
        min_pixels = int(self.major_fraction * image.width * image.height)
        values = np.array(
            [result.n_regions, result.n_holes, result.major_regions(min_pixels)],
            dtype=np.float64,
        )
        return FeatureVector(kind=self.name, values=values, tag=self.tag)

    def distance(self, a: FeatureVector, b: FeatureVector) -> float:
        """Canberra distance over the three counters."""
        self._check_pair(a, b)
        denom = np.abs(a.values) + np.abs(b.values)
        mask = denom > 1e-12
        return float(np.sum(np.abs(a.values - b.values)[mask] / denom[mask]))

    def batch_distance(self, q: FeatureVector, matrix: np.ndarray) -> np.ndarray:
        """Vectorized Canberra distances over the three counters."""
        from repro.similarity.measures import canberra_batch

        return canberra_batch(q.values, self._check_batch(q, matrix))
