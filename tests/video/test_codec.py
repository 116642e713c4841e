"""RVF container format tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging.image import Image
from repro.video.codec import (
    RvfError,
    RvfReader,
    RvfWriter,
    encode_rvf_bytes,
    read_rvf,
    rle_decode,
    rle_encode,
    rle_encoded_size,
    write_rvf,
)
from tests.video import oracles


def _frames(seed, n, h=12, w=16, gray=False):
    gen = np.random.default_rng(seed)
    shape = (h, w) if gray else (h, w, 3)
    return [Image(gen.integers(0, 256, shape, dtype=np.uint8)) for _ in range(n)]


class TestRle:
    def test_empty(self):
        assert rle_encode(b"") == b""
        assert rle_decode(b"", 0) == b""

    def test_simple_runs(self):
        data = b"\x05" * 300 + b"\x07" * 2
        encoded = rle_encode(data)
        assert rle_decode(encoded, len(data)) == data
        # 300 = 255 + 45 -> two pairs, plus one pair for the 7s
        assert len(encoded) == 6

    def test_alternating_worst_case(self):
        data = bytes(range(256)) * 2
        encoded = rle_encode(data)
        assert len(encoded) == 2 * len(data)
        assert rle_decode(encoded, len(data)) == data

    def test_decode_length_mismatch(self):
        with pytest.raises(RvfError):
            rle_decode(rle_encode(b"abc"), 5)

    def test_decode_odd_length(self):
        with pytest.raises(RvfError):
            rle_decode(b"\x01\x02\x03", 1)

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=0, max_size=2000))
    def test_roundtrip_property(self, data):
        assert rle_decode(rle_encode(data), len(data)) == data


def _runs_of(runs):
    """Bytes built from (value, length) runs: long runs are the point."""
    return b"".join(bytes([value]) * length for value, length in runs)


_RUNS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 800)), min_size=0, max_size=12
).map(_runs_of)


class TestRleAgainstOracle:
    """The vectorized encoder and size helper equal the loop encoder."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.binary(max_size=3000), _RUNS))
    def test_encode_equals_oracle(self, data):
        assert rle_encode(data) == oracles.rle_encode(data)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.binary(max_size=3000), _RUNS))
    def test_size_equals_encoded_length(self, data):
        assert rle_encoded_size(data) == len(rle_encode(data))

    @pytest.mark.parametrize("run", [1, 254, 255, 256, 509, 510, 511, 765, 766])
    def test_run_cap_boundaries(self, run):
        for data in (b"\x07" * run, b"\x01" + b"\x07" * run + b"\x02"):
            encoded = rle_encode(data)
            assert encoded == oracles.rle_encode(data)
            assert rle_encoded_size(data) == len(encoded)
            assert rle_decode(encoded, len(data)) == data

    def test_empty(self):
        assert rle_encode(b"") == oracles.rle_encode(b"") == b""
        assert rle_encoded_size(b"") == 0


class TestWriterReader:
    def test_roundtrip_rgb(self):
        frames = _frames(0, 5)
        reader = RvfReader(encode_rvf_bytes(frames))
        assert len(reader) == 5
        assert list(reader) == frames
        assert reader.width == 16 and reader.height == 12 and reader.channels == 3

    def test_roundtrip_gray(self):
        frames = _frames(1, 3, gray=True)
        reader = RvfReader(encode_rvf_bytes(frames))
        assert reader.channels == 1
        assert list(reader) == frames

    def test_random_access_and_negative_index(self):
        frames = _frames(2, 6)
        reader = RvfReader(encode_rvf_bytes(frames))
        assert reader[3] == frames[3]
        assert reader[-1] == frames[-1]
        assert reader[1:4] == frames[1:4]

    def test_index_out_of_range(self):
        reader = RvfReader(encode_rvf_bytes(_frames(3, 2)))
        with pytest.raises(IndexError):
            reader[5]

    def test_empty_stream_rejected(self):
        with pytest.raises(RvfError):
            RvfWriter().to_bytes()

    def test_shape_mismatch_rejected(self):
        w = RvfWriter()
        w.append(Image.blank(8, 8, 0))
        with pytest.raises(RvfError):
            w.append(Image.blank(9, 8, 0))

    def test_non_image_rejected(self):
        with pytest.raises(TypeError):
            RvfWriter().append(np.zeros((4, 4), dtype=np.uint8))

    def test_fps_metadata(self):
        w = RvfWriter(fps=30)
        w.append(Image.blank(4, 4, 0))
        assert RvfReader(w.to_bytes()).fps == 30

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError):
            RvfWriter(codec="h264")


class TestCodecSelection:
    def test_auto_picks_rle_for_flat_frames(self):
        frames = [Image.blank(32, 32, (i, i, i)) for i in range(4)]
        auto = encode_rvf_bytes(frames, codec="auto")
        raw = encode_rvf_bytes(frames, codec="raw")
        assert len(auto) < len(raw)

    def test_auto_picks_raw_for_noise(self):
        frames = _frames(4, 3, h=20, w=20)
        auto = encode_rvf_bytes(frames, codec="auto")
        rle = encode_rvf_bytes(frames, codec="rle")
        assert len(auto) < len(rle)

    def test_auto_keeps_raw_on_a_tie(self):
        # runs of exactly two bytes: the RLE is as long as the raw frame
        frame = Image(np.tile(np.repeat(np.array([0, 255], dtype=np.uint8), 2), (4, 2)))
        assert rle_encoded_size(frame.pixels.tobytes()) == frame.pixels.size
        assert encode_rvf_bytes([frame]) == encode_rvf_bytes([frame], codec="raw")

    def test_auto_matches_smaller_of_encoded_totals(self):
        frames = _frames(9, 3) + [Image.blank(16, 12, (i, i, i)) for i in range(3)]
        rle = encode_rvf_bytes(frames, codec="rle")
        raw = encode_rvf_bytes(frames, codec="raw")
        assert encode_rvf_bytes(frames, codec="auto") == (rle if len(rle) < len(raw) else raw)

    def test_forced_rle_roundtrips_noise(self):
        frames = _frames(5, 2)
        assert list(RvfReader(encode_rvf_bytes(frames, codec="rle"))) == frames


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(RvfError):
            RvfReader(b"XXXX" + b"\x00" * 64)

    def test_short_data(self):
        with pytest.raises(RvfError):
            RvfReader(b"RV")

    def test_truncated_frame_table(self):
        data = encode_rvf_bytes(_frames(6, 4))
        with pytest.raises(RvfError):
            RvfReader(data[:40])

    def test_truncated_frame_data(self):
        data = encode_rvf_bytes(_frames(7, 4))
        with pytest.raises(RvfError):
            RvfReader(data[:-10])


class TestFileIo:
    def test_write_and_read_file(self, tmp_path):
        frames = _frames(8, 4)
        path = tmp_path / "clip.rvf"
        write_rvf(frames, path)
        assert read_rvf(path) == frames
