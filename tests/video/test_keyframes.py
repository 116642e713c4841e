"""§4.1 key-frame extraction tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging.image import Image
from repro.video import keyframes
from repro.video.keyframes import (
    KeyFrameExtractor,
    extract_key_frames,
    frame_signature,
    frame_signature_distance,
    frame_signatures,
)
from tests.video import oracles


def _flat(color):
    return Image.blank(32, 24, color)


class TestSignature:
    def test_shape(self, gradient_image):
        sig = frame_signature(gradient_image)
        assert sig.shape == (25, 3)

    def test_flat_image_signature_constant(self):
        sig = frame_signature(_flat((10, 20, 30)))
        assert np.allclose(sig, [10, 20, 30])

    def test_signature_scale_invariant(self, gradient_image):
        from repro.imaging.resize import resize

        small = frame_signature(gradient_image)
        big = frame_signature(resize(gradient_image, 128, 96))
        assert np.abs(small - big).max() < 12  # same content, same signature

    def test_distance_zero_for_identical(self, gradient_image):
        assert frame_signature_distance(gradient_image, gradient_image) == 0.0

    def test_distance_symmetric(self, gradient_image, noise_image):
        d1 = frame_signature_distance(gradient_image, noise_image)
        d2 = frame_signature_distance(noise_image, gradient_image)
        assert d1 == pytest.approx(d2)

    def test_distance_scales_with_difference(self):
        base = _flat((0, 0, 0))
        near = _flat((10, 10, 10))
        far = _flat((200, 200, 200))
        assert frame_signature_distance(base, near) < frame_signature_distance(base, far)

    def test_flat_color_distance_value(self):
        # 25 points, each Euclidean distance 30 -> total 750
        d = frame_signature_distance(_flat((0, 0, 0)), _flat((30, 0, 0)))
        assert d == pytest.approx(750.0)


class TestExtractor:
    def test_empty_input(self):
        assert extract_key_frames([]) == []

    def test_single_frame(self):
        frames = [_flat((5, 5, 5))]
        kept = extract_key_frames(frames)
        assert [i for i, _f in kept] == [0]

    def test_identical_frames_collapse_to_one(self):
        frames = [_flat((50, 60, 70))] * 8
        kept = extract_key_frames(frames)
        assert [i for i, _f in kept] == [0]

    def test_two_distinct_shots(self):
        # jump of 200 gray levels -> signature distance 25*200*sqrt(3) >> 800
        frames = [_flat((10, 10, 10))] * 4 + [_flat((210, 210, 210))] * 4
        kept = extract_key_frames(frames)
        assert [i for i, _f in kept] == [0, 4]

    def test_first_frame_always_kept(self):
        frames = [_flat((i, i, i)) for i in (0, 255, 0, 255)]
        kept = extract_key_frames(frames)
        assert kept[0][0] == 0

    def test_threshold_zero_keeps_everything_distinct(self):
        frames = [_flat((i * 20, 0, 0)) for i in range(5)]
        kept = extract_key_frames(frames, threshold=0.0)
        assert [i for i, _f in kept] == [0, 1, 2, 3, 4]

    def test_huge_threshold_keeps_only_first(self):
        frames = [_flat((i * 50, 0, 0)) for i in range(5)]
        kept = extract_key_frames(frames, threshold=1e9)
        assert [i for i, _f in kept] == [0]

    def test_paper_threshold_separates_shots(self, sample_video):
        kept = extract_key_frames(list(sample_video.frames), base_size=150)
        indices = [i for i, _f in kept]
        assert 0 in indices
        # a key frame at (or right after) the shot boundary
        assert any(sample_video.spec.frames_per_shot <= i for i in indices)

    def test_run_semantics_distance_from_kept_frame(self):
        """Frames drift gradually; each kept frame anchors its run, so a
        slow drift past the threshold still produces a new key frame."""
        frames = [_flat((i * 12, i * 12, i * 12)) for i in range(12)]
        kept = extract_key_frames(frames)  # 25*12*sqrt(3) ~ 520 per step
        indices = [i for i, _f in kept]
        assert len(indices) >= 2  # cumulative drift crosses 800
        assert indices[0] == 0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            KeyFrameExtractor(threshold=-1)
        with pytest.raises(ValueError):
            KeyFrameExtractor(grid=0)

    def test_returned_frames_are_the_inputs(self):
        frames = [_flat((0, 0, 0)), _flat((255, 255, 255))]
        kept = extract_key_frames(frames)
        assert kept[0][1] is frames[0]
        assert kept[1][1] is frames[1]


def _clip(seed, n, h, w, gray):
    gen = np.random.default_rng(seed)
    shape = (h, w) if gray else (h, w, 3)
    base = gen.integers(0, 256, (n,) + shape, dtype=np.uint8)
    return [Image(np.ascontiguousarray(frame)) for frame in base]


_SHAPES = st.tuples(
    st.integers(1, 6), st.integers(1, 97), st.integers(1, 131), st.booleans()
)


class TestStackedSignaturesAgainstOracle:
    """One stacked pass equals the rescale-then-mean oracle, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(_SHAPES, st.sampled_from([64, 150, 300]), st.integers(0, 2**16))
    def test_equals_oracle(self, shape, base_size, seed):
        n, h, w, gray = shape
        frames = _clip(seed, n, h, w, gray)
        sample = min(15, max(1, base_size // 10))
        got = frame_signatures(frames, base_size, 5, sample)
        for frame, sig in zip(frames, got):
            assert sig.tobytes() == oracles.frame_signature(frame, base_size, 5, sample).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(st.lists(_SHAPES, min_size=2, max_size=4), st.integers(0, 2**16))
    def test_mixed_shapes_grouped(self, shapes, seed):
        # a user's query clip may change size or channels mid-way
        frames = [
            f for k, (n, h, w, gray) in enumerate(shapes) for f in _clip(seed + k, n, h, w, gray)
        ]
        got = frame_signatures(frames, 64, 5, 6)
        want = [oracles.frame_signature(f, 64, 5, 6) for f in frames]
        assert got.tobytes() == np.stack(want).tobytes()

    @pytest.mark.parametrize("base_size", [64, 150, 300])
    def test_paper_grid_and_window(self, gradient_image, noise_image, base_size):
        for image in (gradient_image, noise_image, gradient_image.to_gray()):
            assert frame_signature(image, base_size).tobytes() == (
                oracles.frame_signature(image, base_size, 5, 15).tobytes()
            )

    def test_extractor_on_mixed_shape_clip(self):
        frames = _clip(1, 3, 24, 32, False) + _clip(2, 3, 40, 20, True)
        kept = KeyFrameExtractor(base_size=64, threshold=0.0).extract(frames)
        assert [i for i, _f in kept] == list(range(6))


def test_long_large_clip_is_chunked_and_exact():
    """300 frames of 320x240: the same signatures as one frame at a time,
    without one float64 copy of the whole clip."""
    gen = np.random.default_rng(3)
    distinct = [Image(gen.integers(0, 256, (240, 320, 3), dtype=np.uint8)) for _ in range(13)]
    frames = [distinct[i % 13] for i in range(300)]
    values_per_frame = 150 * 150 * 3  # the picked rows x cols at base 150
    assert keyframes.CHUNK_VALUES < 300 * values_per_frame
    tracemalloc.start()
    try:
        stacked = frame_signatures(frames, 150, 5, 15)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    whole_clip = 300 * 240 * 320 * 3 * 8
    assert peak < 4 * keyframes.CHUNK_VALUES * 8 < whole_clip
    one_at_a_time = np.stack([frame_signature(f, 150, 5, 15) for f in frames])
    assert stacked.tobytes() == one_at_a_time.tobytes()
    for k in range(13):
        assert stacked[k].tobytes() == oracles.frame_signature(distinct[k], 150, 5, 15).tobytes()
