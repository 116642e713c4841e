"""The :class:`Image` container and binary/ASCII netpbm + BMP codecs.

The paper stores key frames as ``ORD_Image`` BLOBs inside Oracle and moves
frames around as files produced by a "video to jpeg converter".  We need the
same ability to serialize frames into real bytes and read them back, without
any third-party imaging library.  PPM (P6/P3) and PGM (P5/P2) are simple,
lossless, and self-describing; BMP (24-bit uncompressed) is included because
it is the other ubiquitous no-compression format.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass, field
from typing import Tuple, Union

import numpy as np

__all__ = [
    "Image",
    "ImageFormatError",
    "read_image",
    "write_image",
    "decode_image",
    "encode_ppm",
    "encode_pgm",
    "encode_bmp",
]


class ImageFormatError(ValueError):
    """Raised when encoded image bytes cannot be parsed."""


@dataclass(frozen=True)
class Image:
    """An 8-bit image: grayscale ``(h, w)`` or RGB ``(h, w, 3)``.

    The pixel array is always ``uint8``.  Instances are immutable value
    objects; operations return new images.
    """

    pixels: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.pixels)
        if arr.dtype != np.uint8:
            raise TypeError(f"Image pixels must be uint8, got {arr.dtype}")
        if arr.ndim == 2:
            pass
        elif arr.ndim == 3 and arr.shape[2] == 3:
            pass
        else:
            raise ValueError(
                f"Image must be (h, w) gray or (h, w, 3) RGB, got shape {arr.shape}"
            )
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("Image must have nonzero width and height")
        # Freeze the buffer so the frozen dataclass is actually immutable.
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    def gray(self) -> np.ndarray:
        """The BT.601 gray conversion, memoized (instances are immutable).

        Several extractors start from the same luminance plane; computing
        it once per image removes the repeated conversion from the query
        hot path.  The memo is part of this value object, not shared state.
        """
        from repro.imaging.color import rgb_to_gray

        memo = self.__dict__.get("_gray_memo")
        if memo is None:
            memo = rgb_to_gray(self.pixels)
            memo.setflags(write=False)
            object.__setattr__(self, "_gray_memo", memo)
        return memo

    # -- basic geometry -----------------------------------------------------

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.pixels.shape

    @property
    def is_gray(self) -> bool:
        return self.pixels.ndim == 2

    @property
    def is_rgb(self) -> bool:
        return self.pixels.ndim == 3

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Image":
        """Build an image from any numeric array, clipping into [0, 255]."""
        a = np.asarray(arr)
        if a.dtype != np.uint8:
            a = np.clip(np.rint(a.astype(np.float64)), 0, 255).astype(np.uint8)
        return cls(a)

    @classmethod
    def blank(cls, width: int, height: int, color: Union[int, Tuple[int, int, int]] = 0) -> "Image":
        """A solid-color image. A scalar color makes a gray image."""
        if isinstance(color, tuple):
            arr = np.empty((height, width, 3), dtype=np.uint8)
            arr[:, :] = np.asarray(color, dtype=np.uint8)
        else:
            arr = np.full((height, width), int(color), dtype=np.uint8)
        return cls(arr)

    # -- conversions ----------------------------------------------------------

    def to_rgb(self) -> "Image":
        """Return an RGB view of this image (replicating a gray channel)."""
        if self.is_rgb:
            return self
        return Image(np.repeat(self.pixels[:, :, np.newaxis], 3, axis=2))

    def to_gray(self) -> "Image":
        """Return a grayscale image using the paper's luminance matrix.

        The paper combines bands with ``{{0.114, 0.587, 0.299, 0}}`` applied
        to (B, G, R) order -- i.e. ITU-R BT.601 luma.
        """
        if self.is_gray:
            return self
        from repro.imaging.color import rgb_to_gray

        return Image(rgb_to_gray(self.pixels))

    def astype_float(self) -> np.ndarray:
        """Pixels as float64 (a copy; safe to mutate)."""
        return self.pixels.astype(np.float64)

    # -- equality / hashing -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )

    def __hash__(self) -> int:
        return hash((self.pixels.shape, self.pixels.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "gray" if self.is_gray else "rgb"
        return f"Image({self.width}x{self.height} {kind})"

    # -- codecs -----------------------------------------------------------------

    def encode(self, fmt: str = "ppm") -> bytes:
        """Serialize to ``fmt`` in {'ppm', 'pgm', 'bmp'}."""
        fmt = fmt.lower()
        if fmt == "ppm":
            return encode_ppm(self)
        if fmt == "pgm":
            return encode_pgm(self)
        if fmt == "bmp":
            return encode_bmp(self)
        raise ValueError(f"unsupported image format: {fmt!r}")

    @classmethod
    def decode(cls, data: bytes) -> "Image":
        return decode_image(data)

    def save(self, path: Union[str, "os.PathLike[str]"]) -> None:
        """Write to ``path``; format chosen by extension (.ppm/.pgm/.bmp)."""
        ext = os.path.splitext(os.fspath(path))[1].lstrip(".").lower() or "ppm"
        with open(path, "wb") as fh:
            fh.write(self.encode(ext))


# ---------------------------------------------------------------------------
# netpbm (PPM/PGM) codec
# ---------------------------------------------------------------------------


def encode_ppm(image: Image) -> bytes:
    """Encode as binary PPM (P6). Gray images are expanded to RGB."""
    rgb = image.to_rgb()
    header = f"P6\n{rgb.width} {rgb.height}\n255\n".encode("ascii")
    return header + rgb.pixels.tobytes()


def encode_pgm(image: Image) -> bytes:
    """Encode as binary PGM (P5). RGB images are converted to gray."""
    gray = image.to_gray()
    header = f"P5\n{gray.width} {gray.height}\n255\n".encode("ascii")
    return header + gray.pixels.tobytes()


def _read_pnm_tokens(buf: io.BytesIO, count: int) -> list:
    """Read whitespace/comment-delimited header tokens from a netpbm stream."""
    tokens = []
    while len(tokens) < count:
        ch = buf.read(1)
        if not ch:
            raise ImageFormatError("truncated netpbm header")
        if ch in b" \t\r\n":
            continue
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = buf.read(1)
            continue
        token = bytearray(ch)
        while True:
            ch = buf.read(1)
            if not ch or ch in b" \t\r\n":
                break
            token += ch
        tokens.append(bytes(token))
    return tokens


def _decode_pnm(data: bytes) -> Image:
    magic = data[:2]
    buf = io.BytesIO(data[2:])
    try:
        width_b, height_b, maxval_b = _read_pnm_tokens(buf, 3)
        width, height, maxval = int(width_b), int(height_b), int(maxval_b)
    except ValueError as exc:
        raise ImageFormatError(f"bad netpbm header: {exc}") from exc
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"bad netpbm dimensions {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"only maxval=255 supported, got {maxval}")

    channels = 3 if magic in (b"P6", b"P3") else 1
    n = width * height * channels
    if magic in (b"P6", b"P5"):
        raw = buf.read(n)
        if len(raw) < n:
            raise ImageFormatError("truncated netpbm pixel data")
        arr = np.frombuffer(raw, dtype=np.uint8, count=n)
    else:  # ASCII P3/P2
        text = buf.read().split()
        if len(text) < n:
            raise ImageFormatError("truncated ASCII netpbm pixel data")
        arr = np.array([int(t) for t in text[:n]], dtype=np.uint8)
    if channels == 3:
        return Image(arr.reshape(height, width, 3))
    return Image(arr.reshape(height, width))


# ---------------------------------------------------------------------------
# BMP codec (24-bit uncompressed, bottom-up)
# ---------------------------------------------------------------------------

_BMP_FILE_HEADER = struct.Struct("<2sIHHI")
_BMP_INFO_HEADER = struct.Struct("<IiiHHIIiiII")


def encode_bmp(image: Image) -> bytes:
    """Encode as a 24-bit uncompressed Windows BMP (BGR, bottom-up rows)."""
    rgb = image.to_rgb()
    h, w = rgb.height, rgb.width
    row_size = (3 * w + 3) & ~3
    pixel_bytes = row_size * h
    offset = _BMP_FILE_HEADER.size + _BMP_INFO_HEADER.size
    file_header = _BMP_FILE_HEADER.pack(b"BM", offset + pixel_bytes, 0, 0, offset)
    info_header = _BMP_INFO_HEADER.pack(
        _BMP_INFO_HEADER.size, w, h, 1, 24, 0, pixel_bytes, 2835, 2835, 0, 0
    )
    bgr = rgb.pixels[::-1, :, ::-1]  # bottom-up rows, BGR channel order
    rows = np.zeros((h, row_size), dtype=np.uint8)
    rows[:, : 3 * w] = bgr.reshape(h, 3 * w)
    return file_header + info_header + rows.tobytes()


def _decode_bmp(data: bytes) -> Image:
    if len(data) < _BMP_FILE_HEADER.size + _BMP_INFO_HEADER.size:
        raise ImageFormatError("truncated BMP header")
    magic, _size, _r1, _r2, offset = _BMP_FILE_HEADER.unpack_from(data, 0)
    if magic != b"BM":
        raise ImageFormatError("not a BMP file")
    (
        hdr_size,
        width,
        height,
        _planes,
        bpp,
        compression,
        _img_size,
        _xppm,
        _yppm,
        _clr_used,
        _clr_imp,
    ) = _BMP_INFO_HEADER.unpack_from(data, _BMP_FILE_HEADER.size)
    if hdr_size < 40 or bpp != 24 or compression != 0:
        raise ImageFormatError("only 24-bit uncompressed BMP supported")
    flip = height > 0
    height = abs(height)
    row_size = (3 * width + 3) & ~3
    need = offset + row_size * height
    if len(data) < need:
        raise ImageFormatError("truncated BMP pixel data")
    rows = np.frombuffer(data, dtype=np.uint8, count=row_size * height, offset=offset)
    rows = rows.reshape(height, row_size)[:, : 3 * width].reshape(height, width, 3)
    rgb = rows[:, :, ::-1]
    if flip:
        rgb = rgb[::-1]
    return Image(np.ascontiguousarray(rgb))


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def decode_image(data: bytes) -> Image:
    """Decode PPM/PGM (binary or ASCII) or 24-bit BMP bytes."""
    if len(data) < 2:
        raise ImageFormatError("image data too short")
    magic = data[:2]
    if magic in (b"P6", b"P5", b"P3", b"P2"):
        return _decode_pnm(data)
    if magic == b"BM":
        return _decode_bmp(data)
    raise ImageFormatError(f"unrecognized image magic {magic!r}")


def read_image(path: Union[str, "os.PathLike[str]"]) -> Image:
    """Read an image file (PPM/PGM/BMP)."""
    with open(path, "rb") as fh:
        return decode_image(fh.read())


def write_image(image: Image, path: Union[str, "os.PathLike[str]"]) -> None:
    """Write ``image`` to ``path``; format chosen by extension."""
    image.save(path)
