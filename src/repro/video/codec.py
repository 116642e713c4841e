"""RVF -- a small self-describing video container.

The paper treats a video as a file that an external "video to jpeg
converter" expands into an ordered list of frame images.  RVF replaces that
tool chain with a real on-disk format we fully control:

Layout (all integers little-endian)::

    magic      4 bytes  b"RVF1"
    width      u32
    height     u32
    fps        u32      (nominal; metadata only)
    channels   u32      (1 = gray, 3 = RGB)
    codec      u32      (0 = RAW, 1 = RLE)
    n_frames   u32
    reserved   u32
    frame table: n_frames x (offset u64, length u64)   -- relative to data start
    frame data  ...

RLE stores each frame's flattened bytes as (count u8, value u8) pairs per
run, capped at 255.  It only pays on genuinely flat content: interleaved
RGB bytes of the generator's noisy frames rarely repeat, so their RLE is
about 1.94x the raw size.  "auto" therefore picks the smaller codec from
the run count alone (the RLE size is ``2 * sum(ceil(run / 255))``) and
only encodes when RLE wins.  The frame table makes random access O(1),
which the ingest pipeline uses to stream frames without decoding the whole
file.
"""

from __future__ import annotations

import io
import os
import struct
from typing import Iterable, Iterator, List, Sequence, Union

import numpy as np

from repro.imaging.image import Image

__all__ = [
    "RvfError",
    "RvfWriter",
    "RvfReader",
    "write_rvf",
    "read_rvf",
    "encode_rvf_bytes",
    "rle_encode",
    "rle_encoded_size",
    "rle_decode",
]

_MAGIC = b"RVF1"
_HEADER = struct.Struct("<4sIIIIIII")
_TABLE_ENTRY = struct.Struct("<QQ")

CODEC_RAW = 0
CODEC_RLE = 1


class RvfError(ValueError):
    """Raised for malformed RVF data or inconsistent frame shapes."""


# ---------------------------------------------------------------------------
# RLE
# ---------------------------------------------------------------------------


def _runs(data: bytes):
    """``(values, lengths)`` of the maximal runs of equal bytes."""
    arr = np.frombuffer(data, dtype=np.uint8)
    starts = np.concatenate(([0], np.flatnonzero(arr[1:] != arr[:-1]) + 1))
    return arr[starts], np.diff(starts, append=arr.size)


def rle_encoded_size(data: bytes) -> int:
    """``len(rle_encode(data))``, computed from the run lengths alone."""
    if not data:
        return 0
    _values, lengths = _runs(data)
    return 2 * int(((lengths + 254) // 255).sum())


def rle_encode(data: bytes) -> bytes:
    """Run-length encode bytes as (count, value) pairs, runs capped at 255."""
    if not data:
        return b""
    values, lengths = _runs(data)
    # a run of n bytes is ceil(n / 255) pairs: full 255-counts, then the rest
    chunks = (lengths + 254) // 255
    last = np.cumsum(chunks) - 1
    pairs = np.empty((int(last[-1]) + 1, 2), dtype=np.uint8)
    pairs[:, 0] = 255
    pairs[last, 0] = lengths - 255 * (chunks - 1)
    pairs[:, 1] = np.repeat(values, chunks)
    return pairs.tobytes()


def rle_decode(data: bytes, expected: int) -> bytes:
    """Decode RLE bytes; raises :class:`RvfError` on length mismatch."""
    if len(data) % 2 != 0:
        raise RvfError("RLE stream has odd length")
    pairs = np.frombuffer(data, dtype=np.uint8).reshape(-1, 2)
    counts = pairs[:, 0].astype(np.int64)
    values = pairs[:, 1]
    total = int(counts.sum())
    if total != expected:
        raise RvfError(f"RLE decodes to {total} bytes, expected {expected}")
    return np.repeat(values, counts).tobytes()


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


class RvfWriter:
    """Accumulates frames and serializes the container.

    All frames must share the first frame's shape.  Use as::

        writer = RvfWriter(codec="rle", fps=25)
        for frame in frames:
            writer.append(frame)
        writer.save(path)          # or data = writer.to_bytes()
    """

    def __init__(self, codec: str = "auto", fps: int = 25):
        codec = codec.lower()
        if codec not in ("raw", "rle", "auto"):
            raise ValueError(f"unknown codec {codec!r}")
        self._requested = codec
        self._fps = int(fps)
        self._shape = None
        self._raw_frames: List[bytes] = []

    def append(self, frame: Image) -> None:
        if not isinstance(frame, Image):
            raise TypeError("RvfWriter.append expects an Image")
        if self._shape is None:
            self._shape = frame.shape
        elif frame.shape != self._shape:
            raise RvfError(
                f"frame shape {frame.shape} differs from first frame {self._shape}"
            )
        self._raw_frames.append(frame.pixels.tobytes())

    def __len__(self) -> int:
        return len(self._raw_frames)

    def _choose_payloads(self):
        """Resolve 'auto' by whichever encoding is smaller in total.

        The RLE total comes from the run counts, so a video that stays RAW
        is never encoded.
        """
        if self._requested == "raw":
            return CODEC_RAW, self._raw_frames
        if self._requested == "auto" and sum(
            map(rle_encoded_size, self._raw_frames)
        ) >= sum(map(len, self._raw_frames)):
            return CODEC_RAW, self._raw_frames
        return CODEC_RLE, [rle_encode(raw) for raw in self._raw_frames]

    def to_bytes(self) -> bytes:
        if self._shape is None:
            raise RvfError("cannot serialize an empty RVF stream")
        codec, payloads = self._choose_payloads()
        h, w = self._shape[0], self._shape[1]
        channels = 1 if len(self._shape) == 2 else self._shape[2]
        out = io.BytesIO()
        out.write(
            _HEADER.pack(_MAGIC, w, h, self._fps, channels, codec, len(payloads), 0)
        )
        offset = 0
        for payload in payloads:
            out.write(_TABLE_ENTRY.pack(offset, len(payload)))
            offset += len(payload)
        for payload in payloads:
            out.write(payload)
        return out.getvalue()

    def save(self, path: Union[str, "os.PathLike[str]"]) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------


class RvfReader:
    """Random-access reader over RVF bytes.

    Supports ``len(reader)``, ``reader[i]``, iteration, and slicing
    (``reader[2:8]`` returns a list of decoded frames).
    """

    def __init__(self, data: bytes):
        if len(data) < _HEADER.size:
            raise RvfError("RVF data shorter than header")
        (magic, w, h, fps, channels, codec, n_frames, _reserved) = _HEADER.unpack_from(
            data, 0
        )
        if magic != _MAGIC:
            raise RvfError(f"bad RVF magic {magic!r}")
        if channels not in (1, 3):
            raise RvfError(f"unsupported channel count {channels}")
        if codec not in (CODEC_RAW, CODEC_RLE):
            raise RvfError(f"unsupported codec id {codec}")
        self.width = w
        self.height = h
        self.fps = fps
        self.channels = channels
        self._codec = codec
        table_size = n_frames * _TABLE_ENTRY.size
        data_start = _HEADER.size + table_size
        if len(data) < data_start:
            raise RvfError("RVF frame table truncated")
        self._entries = [
            _TABLE_ENTRY.unpack_from(data, _HEADER.size + i * _TABLE_ENTRY.size)
            for i in range(n_frames)
        ]
        self._data = data
        self._data_start = data_start
        for off, length in self._entries:
            if data_start + off + length > len(data):
                raise RvfError("RVF frame data truncated")

    @classmethod
    def open(cls, path: Union[str, "os.PathLike[str]"]) -> "RvfReader":
        with open(path, "rb") as fh:
            return cls(fh.read())

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def frame_shape(self):
        if self.channels == 1:
            return (self.height, self.width)
        return (self.height, self.width, 3)

    def _decode(self, index: int) -> Image:
        off, length = self._entries[index]
        start = self._data_start + off
        payload = self._data[start : start + length]
        expected = self.height * self.width * self.channels
        if self._codec == CODEC_RLE:
            raw = rle_decode(payload, expected)
        else:
            if length != expected:
                raise RvfError(
                    f"raw frame {index} has {length} bytes, expected {expected}"
                )
            raw = payload
        arr = np.frombuffer(raw, dtype=np.uint8).reshape(self.frame_shape)
        return Image(arr)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._decode(i) for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"frame index {index} out of range")
        return self._decode(index)

    def __iter__(self) -> Iterator[Image]:
        for i in range(len(self)):
            yield self._decode(i)


# ---------------------------------------------------------------------------
# conveniences
# ---------------------------------------------------------------------------


def encode_rvf_bytes(frames: Sequence[Image], codec: str = "auto", fps: int = 25) -> bytes:
    """Serialize a frame sequence into RVF bytes."""
    writer = RvfWriter(codec=codec, fps=fps)
    for frame in frames:
        writer.append(frame)
    return writer.to_bytes()


def write_rvf(
    frames: Iterable[Image], path: Union[str, "os.PathLike[str]"], codec: str = "auto", fps: int = 25
) -> None:
    """Write a frame sequence to an RVF file."""
    writer = RvfWriter(codec=codec, fps=fps)
    for frame in frames:
        writer.append(frame)
    writer.save(path)


def read_rvf(path: Union[str, "os.PathLike[str]"]) -> List[Image]:
    """Read every frame of an RVF file into memory."""
    return list(RvfReader.open(path))
