"""8-bit grayscale images, ROI rectangles, and PGM file I/O.

An image is a numpy ``uint8`` array of shape ``(height, width)``, row-major,
so ``img[y, x]`` addresses column ``x`` of row ``y``.

The PGM writer always emits the same canonical byte stream for a given
image: the exact header ``P5\\n<width> <height>\\n255\\n`` followed by the
raw raster, no comments. That makes encodings byte-reproducible and lets
round-trip tests compare files directly. The reader is more liberal and
accepts binary P5 and ASCII P2 with ``#`` comments in the header (and
between P2 samples), but, as the Netpbm spec asks, only decimal digits for
numbers, no sample above maxval and, as in SRLE, at most ``MAX_PIXELS``
pixels. One ``np.fromstring`` call parses a P2 raster of digits and
whitespace; any other raster, trailing data included, goes token by token.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import MalformedHeader, PixelBudgetExceeded, RectOutOfBounds, TruncatedData
from .errors import UnsupportedMaxval

MAX_PIXELS = 2**28  # 256 MiB of uint8, as Pillow's MAX_IMAGE_PIXELS

_WHITESPACE = b" \t\n\r\x0b\x0c"
_COMMENT = re.compile(rb"#[^\n]*")
_PLAIN = _WHITESPACE + b"0123456789"  # the bytes np.fromstring takes in a P2 raster
# whitespace and comments, then a token; a skipped comment must reach its
# newline, so backtracking cannot cut one short and return its tail as a token
_TOKEN = re.compile(
    rb"(?:[%s]|%s(?![^\n]))*([^%s#]+)"
    % (re.escape(_WHITESPACE), _COMMENT.pattern, re.escape(_WHITESPACE))
)


@dataclass(frozen=True)
class Rect:
    """Inclusive rectangle from top-left (x0, y0) to bottom-right (x1, y1), 0-indexed."""

    x0: int
    y0: int
    x1: int
    y1: int


def as_gray(pixels) -> np.ndarray:
    """Coerce nested sequences or an array to a validated grayscale image."""
    img = np.asarray(pixels)
    if img.ndim != 2:
        raise ValueError(f"grayscale image must be 2-D, got shape {img.shape}")
    if img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError(f"image dimensions must be at least 1x1, got {img.shape}")
    return check_values(img)


def check_values(values) -> np.ndarray:
    """Return values as uint8 if they are integers in 0..255; refuse, never wrap, any others."""
    values = np.asarray(values)
    if values.dtype != np.uint8:
        if not np.issubdtype(values.dtype, np.integer):
            raise ValueError(f"pixel values must be integers, got dtype {values.dtype}")
        if values.min() < 0 or values.max() > 255:
            raise ValueError("pixel values must lie in 0..255")
    return values.astype(np.uint8, copy=False)


def check_rect(img: np.ndarray, roi: Rect) -> None:
    """Raise RectOutOfBounds unless roi lies fully inside img."""
    height, width = img.shape
    if not 0 <= roi.x0 <= roi.x1:
        raise RectOutOfBounds(f"need 0 <= x0 <= x1, got x0={roi.x0}, x1={roi.x1}")
    if not 0 <= roi.y0 <= roi.y1:
        raise RectOutOfBounds(f"need 0 <= y0 <= y1, got y0={roi.y0}, y1={roi.y1}")
    if roi.x1 >= width:
        raise RectOutOfBounds(f"x1={roi.x1} outside image of width {width}")
    if roi.y1 >= height:
        raise RectOutOfBounds(f"y1={roi.y1} outside image of height {height}")


def check_pixels(width: int, height: int) -> int:
    """Return width*height; a PGM or SRLE header may declare at most MAX_PIXELS pixels."""
    if (pixels := int(width) * int(height)) > MAX_PIXELS:  # numpy ints would wrap
        raise PixelBudgetExceeded(f"{width}x{height} image has {pixels} pixels, over {MAX_PIXELS}")
    return pixels


def _scan_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next whitespace-delimited header token, skipping # comments."""
    token = _TOKEN.match(data, pos)
    if not token:
        raise MalformedHeader("PGM header ended early")
    return token[1], token.end()


def _header_int(token: bytes, name: str) -> int:
    """Parse ASCII decimal digits only; int() alone also takes signs and underscores."""
    try:
        if token.isdigit():
            return int(token)
    except ValueError:  # more digits than int() converts
        pass
    raise MalformedHeader(f"PGM {name} is not a number: {token!r}")


def _p2_samples(raster: bytes, count: int) -> np.ndarray:
    """The first count samples of a P2 raster, refusing the first bad one in file order.

    Digits and whitespace alone are parsed by one np.fromstring call; any
    other raster, or one with a sample above 255, goes token by token
    through _header_int, which names the first token it refuses.
    """
    # np.fromstring reads blank text as [0] and, given count=, memory past the end; it
    # saturates a huge token but reads a run of zeros too long for int() as 0, and
    # 638 zeros and three digits make 641, one past the lowest limit int() may be set to
    text = _COMMENT.sub(b"", raster).strip()
    plain = not text.translate(None, _PLAIN) and b"0" * 638 not in text
    samples = np.fromstring(text, dtype=np.int64, sep=" ")[:count] if plain else None
    if samples is None or samples.max(initial=0) > 255:
        tokens = text.split(None, count)[:count]
        # clamped to 256: any sample above 255 fails the maxval check the same
        samples = np.array([min(_header_int(t, "pixel"), 256) for t in tokens], dtype=np.int64)
    if samples.size < count:
        raise TruncatedData(f"expected {count} pixel values, found {samples.size}")
    return samples


def read_pgm(data: bytes) -> np.ndarray:
    """Parse P5 (binary) or P2 (ASCII) PGM bytes into a grayscale image."""
    data = bytes(data)
    magic, pos = _scan_token(data, 0)
    if magic not in (b"P5", b"P2"):
        raise MalformedHeader(f"not a PGM file (magic {magic!r})")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _scan_token(data, pos)
        fields.append(_header_int(token, name))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise MalformedHeader(f"invalid dimensions {width}x{height}")
    if maxval > 255:
        raise UnsupportedMaxval(f"maxval {maxval} exceeds 255")
    if maxval < 1:
        raise MalformedHeader(f"invalid maxval {maxval}")
    count = check_pixels(width, height)

    if magic == b"P5":
        # a single whitespace byte separates the header from the raster
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise MalformedHeader("missing delimiter before binary raster")
        raster = data[pos + 1 : pos + 1 + count]
        if len(raster) < count:
            raise TruncatedData(f"expected {count} pixel bytes, found {len(raster)}")
        samples = np.frombuffer(raster, dtype=np.uint8, count=count)
    else:
        samples = _p2_samples(data[pos:], count)
    if samples.max() > maxval:
        raise MalformedHeader(f"pixel value above maxval {maxval}")
    return samples.astype(np.uint8).reshape(height, width)


def write_pgm(img: np.ndarray) -> bytes:
    """Serialize a grayscale image as canonical binary PGM (P5)."""
    img = as_gray(img)
    height, width = img.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + img.tobytes()


def load_pgm(path) -> np.ndarray:
    """Read a PGM file from disk."""
    with open(path, "rb") as fh:
        return read_pgm(fh.read())


def write_file(path, data: bytes) -> None:
    """Write data to a new file beside path, then rename it over path; on failure remove it."""
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "xb")  # "x": never write into a file that is already there
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_pgm(path, img: np.ndarray) -> None:
    """Write a grayscale image to disk as canonical P5, whole or not at all (see write_file)."""
    write_file(path, write_pgm(img))
