"""Production kernels vs. the reference oracles in ``tests/imaging/oracles.py``.

Every vectorized kernel claims to be a drop-in for the straightforward
code it replaced.  These tests hold it to that: imaging primitives must
match bit for bit, and whole feature vectors must match exactly (or to
tight floating tolerance where the production kernel reorders float ops
-- gabor's FFT convolution, glcm's accumulation order).  The SciPy and
NumPy forms of the Gabor bank and region labelling are compared on every
host that has SciPy.
"""

import numpy as np
import pytest

from repro.features.base import get_extractor
from repro.features.gabor import gabor_responses
from repro.features.regions import label_regions, preprocess_binary
from repro.imaging import accel
from repro.imaging.color import quantize_uniform, rgb_to_gray, rgb_to_hsv
from repro.imaging.image import Image
from repro.imaging.resize import resize_array
from tests.core import oracles as search_oracles
from tests.imaging import oracles

# extractor -> (rtol, atol); None means bitwise equality is required
_TOLERANCES = {
    "sch": None,
    "acc": None,
    "tamura": None,
    "regions": None,
    "glcm": (1e-12, 1e-15),
    "gabor": (1e-6, 1e-12),
}

needs_scipy = pytest.mark.skipif(not accel.HAVE_SCIPY, reason="SciPy is not installed")


@pytest.fixture(params=["gradient", "noise"])
def pixels(request, gradient_image, noise_image):
    return {"gradient": gradient_image, "noise": noise_image}[request.param].pixels


class TestImagingPrimitives:
    def test_rgb_to_gray(self, pixels):
        assert np.array_equal(rgb_to_gray(pixels), oracles.rgb_to_gray(pixels))

    def test_rgb_to_hsv(self, pixels):
        assert np.array_equal(rgb_to_hsv(pixels), oracles.rgb_to_hsv(pixels))

    def test_quantize_uniform(self):
        values = np.linspace(-10.0, 270.0, 997)
        assert np.array_equal(
            quantize_uniform(values, 16), oracles.quantize_uniform(values, 16)
        )

    @pytest.mark.parametrize("size", [(17, 23), (300, 300), (8, 120)])
    def test_resize_nearest(self, pixels, size):
        w, h = size
        assert np.array_equal(
            resize_array(pixels, w, h), oracles.resize_nearest(pixels, w, h)
        )
        gray = rgb_to_gray(pixels)
        assert np.array_equal(resize_array(gray, w, h), oracles.resize_nearest(gray, w, h))


class TestExtractorEquivalence:
    @pytest.mark.parametrize("name", sorted(_TOLERANCES))
    def test_fast_matches_reference(self, name, pixels, monkeypatch):
        extractor = get_extractor(name)
        # fresh Image per run: gray() is memoized on the instance
        fast = extractor.extract(Image(pixels.copy())).values
        oracles.reference_kernels(monkeypatch)
        ref = extractor.extract(Image(pixels.copy())).values
        tol = _TOLERANCES[name]
        if tol is None:
            assert np.array_equal(fast, ref), name
        else:
            rtol, atol = tol
            assert np.allclose(fast, ref, rtol=rtol, atol=atol), name


class TestScipyFallbacks:
    """``HAVE_SCIPY`` alone picks these kernels' forms; both must agree."""

    @needs_scipy
    def test_gabor_numpy_fallback_matches_scipy(self, pixels, monkeypatch):
        gray = rgb_to_gray(pixels).astype(np.float64)
        extractor = get_extractor("gabor")
        with_scipy = gabor_responses(gray)
        features = extractor.extract(Image(pixels.copy())).values
        monkeypatch.setattr(accel, "HAVE_SCIPY", False)
        without = gabor_responses(gray)
        assert np.allclose(with_scipy, without, rtol=1e-6, atol=1e-12)
        assert np.allclose(
            features,
            extractor.extract(Image(pixels.copy())).values,
            rtol=1e-6,
            atol=1e-12,
        )

    @needs_scipy
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_label_regions_numpy_fallback_matches_scipy(
        self, pixels, connectivity, monkeypatch
    ):
        rng = np.random.default_rng(connectivity)
        masks = [preprocess_binary(Image(pixels))] + [
            rng.random((23, 31)) < p for p in (0.2, 0.5, 0.8)
        ]
        with_scipy = [label_regions(m, connectivity) for m in masks]
        monkeypatch.setattr(accel, "HAVE_SCIPY", False)
        for mask, a in zip(masks, with_scipy):
            b = label_regions(mask, connectivity)
            assert np.array_equal(a.labels, b.labels)
            assert (a.n_regions, a.n_holes) == (b.n_regions, b.n_holes)
            assert a.region_sizes == b.region_sizes


class TestStoreGather:
    def test_subset_matrix_matches_reference(self, ingested_system):
        store = ingested_system._store
        ids = store.frame_ids()
        subsets = [ids, ids[::2], ids[:3], list(reversed(ids[:4])), [ids[0], ids[0]]]
        for subset in subsets:
            assert np.array_equal(
                store.feature_matrix("sch", subset),
                search_oracles.feature_matrix(store, "sch", subset),
            )

    def test_unknown_id_raises_on_both_paths(self, ingested_system):
        store = ingested_system._store
        missing = max(store.frame_ids()) + 1000
        with pytest.raises(KeyError):
            store.feature_matrix("sch", [missing])
        with pytest.raises(KeyError):
            search_oracles.feature_matrix(store, "sch", [missing])

    def test_matrix_rows_round_trip(self, ingested_system):
        store = ingested_system._store
        ids = store.frame_ids()
        subset = ids[1::3]
        rows = store.matrix_rows(subset)
        base = store.feature_matrix("sch")
        assert np.array_equal(base[rows], store.feature_matrix("sch", subset))
        with pytest.raises(KeyError):
            store.matrix_rows([max(ids) + 7])


class TestSearchEquivalence:
    def test_query_results_match_reference_paths(self, ingested_system):
        engine = ingested_system._engine
        query = ingested_system.any_key_frame()
        names = list(engine.config.features)
        query_vectors = {n: engine.extractors[n].extract(query) for n in names}
        fast = engine.query_frame(query, top_k=10, use_index=False).hits
        ref = search_oracles.scalar_ranking(engine, query_vectors, top_k=10)
        assert [h.frame_id for h in fast] == [r[0] for r in ref]
        assert np.allclose(
            [h.distance for h in fast],
            [r[1] for r in ref],
            rtol=1e-6,
            atol=1e-9,
        )
