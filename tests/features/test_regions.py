"""§4.8 region growing tests (with scipy.ndimage as an independent oracle)."""

import numpy as np
import pytest

from repro.features.regions import (
    RegionGrowingResult,
    SimpleRegionGrowing,
    label_regions,
    preprocess_binary,
)
from repro.imaging.draw import Canvas
from repro.imaging.image import Image


class TestLabelRegions:
    def test_all_ones_single_region(self):
        r = label_regions(np.ones((5, 5), dtype=bool))
        assert r.n_regions == 1
        assert r.n_holes == 0
        assert r.region_sizes == {1: 25}

    def test_all_zeros_single_hole(self):
        r = label_regions(np.zeros((5, 5), dtype=bool))
        assert r.n_regions == 1
        assert r.n_holes == 1

    def test_two_separate_blobs(self):
        a = np.zeros((10, 10), dtype=bool)
        a[1:3, 1:3] = True
        a[6:9, 6:9] = True
        r = label_regions(a)
        # 2 foreground blobs + 1 background component
        assert r.n_regions == 3
        assert r.n_holes == 1
        assert sorted(r.region_sizes.values()) == [4, 9, 87]

    def test_8_connectivity_joins_diagonals(self):
        a = np.zeros((4, 4), dtype=bool)
        a[0, 0] = a[1, 1] = True
        r8 = label_regions(a, connectivity=8)
        r4 = label_regions(a, connectivity=4)
        fg8 = [s for lbl, s in r8.region_sizes.items()]
        assert r8.n_regions == r8.n_holes + 1  # diagonal pair joined
        assert r4.n_regions > r8.n_regions  # 4-conn splits them

    def test_interior_hole_counted(self):
        a = np.ones((7, 7), dtype=bool)
        a[3, 3] = False
        r = label_regions(a)
        assert r.n_regions == 2
        assert r.n_holes == 1

    def test_labels_cover_image(self):
        gen = np.random.default_rng(0)
        a = gen.random((12, 12)) > 0.5
        r = label_regions(a)
        assert (r.labels > 0).all()
        assert sum(r.region_sizes.values()) == a.size

    def test_matches_scipy_label_counts(self):
        """Cross-check against scipy.ndimage.label on random masks."""
        ndi = pytest.importorskip("scipy.ndimage")
        gen = np.random.default_rng(42)
        structure = np.ones((3, 3))  # 8-connectivity
        for _ in range(5):
            a = gen.random((20, 20)) > 0.55
            ours = label_regions(a, connectivity=8)
            _lbl_fg, n_fg = ndi.label(a, structure=structure)
            _lbl_bg, n_bg = ndi.label(~a, structure=structure)
            assert ours.n_regions == n_fg + n_bg
            assert ours.n_holes == n_bg

    def test_major_regions_threshold(self):
        a = np.zeros((10, 10), dtype=bool)
        a[0:6, 0:6] = True  # 36 px
        a[8, 8] = True  # 1 px
        r = label_regions(a)
        assert r.major_regions(min_pixels=10) == 2  # big blob + background
        assert r.major_regions(min_pixels=40) == 1  # only background (63 px)

    def test_validation(self):
        with pytest.raises(ValueError):
            label_regions(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            label_regions(np.zeros((3, 3)), connectivity=6)


class TestPreprocess:
    def test_binarizes_bimodal_scene(self):
        c = Canvas(40, 30, background=(20, 20, 20))
        c.rect(10, 8, 30, 22, (230, 230, 230))
        binary = preprocess_binary(c.to_image())
        assert binary[15, 20]  # inside the bright rect
        assert not binary[2, 2]  # dark background

    def test_morphology_removes_speckle(self):
        c = Canvas(40, 30, background=(10, 10, 10))
        c.rect(10, 8, 30, 22, (240, 240, 240))
        img = c.to_image().pixels.copy()
        img = np.ascontiguousarray(img)
        img[2, 2] = [250, 250, 250]  # single bright speckle
        binary = preprocess_binary(Image(img))
        assert not binary[2, 2]


class TestExtractor:
    def test_feature_layout(self):
        c = Canvas(40, 30, background=(15, 15, 15))
        c.rect(5, 5, 18, 25, (240, 240, 240))
        c.circle(30, 15, 6, (240, 240, 240))
        fv = SimpleRegionGrowing().extract(c.to_image())
        n_regions, n_holes, major = fv.values
        assert n_regions >= 3  # two shapes + background
        assert n_holes >= 1
        assert major >= 2

    def test_analyze_returns_result(self, gradient_image):
        result = SimpleRegionGrowing().analyze(gradient_image)
        assert isinstance(result, RegionGrowingResult)
        assert result.n_regions >= 1

    def test_counts_scale_with_scene_complexity(self):
        simple = Canvas(40, 40, background=(10, 10, 10))
        simple.rect(10, 10, 30, 30, (240, 240, 240))
        busy = Canvas(40, 40, background=(10, 10, 10))
        for i in range(4):
            busy.rect(2 + i * 10, 4, 8 + i * 10, 14, (240, 240, 240))
            busy.rect(2 + i * 10, 24, 8 + i * 10, 34, (240, 240, 240))
        ex = SimpleRegionGrowing()
        assert ex.extract(busy.to_image()).values[0] > ex.extract(simple.to_image()).values[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            SimpleRegionGrowing(major_fraction=0.0)
        with pytest.raises(ValueError):
            SimpleRegionGrowing(major_fraction=1.5)
