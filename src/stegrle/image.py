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
pixels. A number has 1 to 320 digits, so it and the pixel count a refusal
prints convert under any ``int()`` digit limit. P2 samples are parsed with
numpy in blocks of about ``_BLOCK`` bytes that each end where a sample ends,
and only a block with a bad token goes token by token, to name the first.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import MalformedHeader, PixelBudgetExceeded, RectOutOfBounds, TruncatedData
from .errors import UnsupportedMaxval

MAX_PIXELS = 2**28  # 256 MiB of uint8; Pillow's MAX_IMAGE_PIXELS is a third: 2**28 // 3

_WHITESPACE = b" \t\n\r\x0b\x0c"
_COMMENT = re.compile(rb"#[^\n]*")
# whitespace and comments, then a token; a skipped comment must reach its
# newline, so backtracking cannot cut one short and return its tail as a token
_TOKEN = re.compile(
    rb"(?:[%s]|%s(?![^\n]))*([^%s#]+)"
    % (re.escape(_WHITESPACE), _COMMENT.pattern, re.escape(_WHITESPACE))
)

_BLOCK = 1 << 16  # P2 raster bytes per numpy step, then on to a sample's end: they stay in cache
# bytes.translate table of each byte's class in a P2 raster: a digit's value,
# _SPACE for whitespace, _SPACE + 1 for anything else
_SPACE = 10
_CLASS = bytes(
    byte - 48 if 48 <= byte <= 57 else _SPACE if byte in _WHITESPACE else _SPACE + 1
    for byte in range(256)
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


def shown(value) -> str:
    """A value as a refusal prints it: an integer in decimal, anything else by repr().

    str() refuses an int of more digits than int()'s limit, which may be set as low as 640,
    so an int of over 640 digits is shown by its bit length.
    """
    if isinstance(value, int) and not -(10**640) < value < 10**640:
        return f"<{value.bit_length()}-bit int>"
    return str(value) if isinstance(value, (int, np.integer)) else repr(value)


def check_pixels(width: int, height: int) -> int:
    """Return width*height; a PGM or SRLE header may declare at most MAX_PIXELS pixels."""
    if (pixels := int(width) * int(height)) > MAX_PIXELS:  # numpy ints would wrap
        size = f"{shown(width)}x{shown(height)} image has {shown(pixels)} pixels"
        raise PixelBudgetExceeded(f"{size}, over {MAX_PIXELS}")
    return pixels


def _scan_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next whitespace-delimited header token, skipping # comments."""
    token = _TOKEN.match(data, pos)
    if not token:
        raise MalformedHeader("PGM header ended early")
    return token[1], token.end()


def _header_int(token: bytes, name: str) -> int:
    """Parse 1 to 320 ASCII decimal digits; int() alone also takes signs and underscores."""
    # int() and str() take 640 digits in every setting, and width*height has at most 640
    if token.isdigit() and len(token) <= 320:
        return int(token)
    raise MalformedHeader(f"PGM {name} is not a number: {token!r}")


def _p2_samples(data: bytes, pos: int, count: int) -> np.ndarray:
    """The first count samples of the P2 raster at data[pos:], refusing the first bad one.

    The raster is parsed in numpy blocks up to the byte after the last sample.
    Each byte maps to its digit or to _SPACE; a sample's value is taken at its
    last byte from that digit and the two before it, each counted while the
    bytes between are digits. A nonzero digit before those three makes it 1000
    or more, above any maxval. A block with a byte that is neither digit nor
    whitespace, or with a sample of over 320 digits, is walked token by token
    from its start through _header_int, which names the first token it refuses.
    """
    if data.find(b"#", pos) >= 0:
        data, pos = _COMMENT.sub(b"", data[pos:]), 0
    # each sample takes a digit and a separator, so text, not the header, sizes this
    samples = np.empty(min(count, (len(data) - pos + 1) // 2), dtype=np.uint16)
    filled = 0
    while filled < count and pos < len(data):
        # run on through up to 320 digits and the byte after them, so the block ends where a
        # sample ends and needs no byte of the one before; a 321st digit makes it too long
        head = data[pos + _BLOCK : pos + _BLOCK + 320]
        end = min(pos + _BLOCK + len(head) - len(head.lstrip(b"0123456789")) + 1, len(data))
        # the block and 3 separators before it and 1 after: no sample runs into or out of it
        cls = np.frombuffer((b"   " + data[pos:end] + b" ").translate(_CLASS), dtype=np.uint8)
        is_digit = np.less(cls, _SPACE)
        # a sample ends at a digit before a non-digit; indices are into the block
        ends = np.flatnonzero(np.greater(is_digit[3:-1], is_digit[4:]))[: count - filled]
        # check the block through the byte after the last sample it must give
        stop = int(ends[-1]) + 2 if ends.size == count - filled else len(cls) - 3
        # indices into cls of the digits with three digits after them: the early digits
        run = is_digit[:stop] & is_digit[1 : stop + 1] & is_digit[2 : stop + 2]
        early = np.flatnonzero(run & is_digit[3 : stop + 3])
        # a byte neither digit nor whitespace, or a sample of over 320 digits: 318 early in a row
        too_long = early.size > 317 and (early[317:] - early[:-317] == 317).any()
        if cls[3 : stop + 3].max() > _SPACE or too_long:
            for token in _TOKEN.finditer(data, pos):  # one of them is refused
                _header_int(token[1], "pixel")
        digits = np.multiply(cls, is_digit, dtype=np.uint8)  # whitespace reads as 0
        value = np.multiply(digits[1:-3], is_digit[2:-2], dtype=np.uint16)
        value *= np.uint16(10)
        value += digits[2:-2]
        value *= np.uint16(10)
        value += digits[3:-1]
        taken = samples[filled : filled + ends.size]
        np.take(value, ends, out=taken, mode="clip")  # "raise" would buffer out; ends fit value
        if early.size:  # a nonzero early digit makes its sample 1000 or more, above any maxval
            taken[np.searchsorted(ends, early[cls[early] > 0] - 3)] = 1000
        filled += taken.size
        pos = end
    if filled < count:
        raise TruncatedData(f"expected {count} pixel values, found {filled}")
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
        if (found := len(data) - pos - 1) < count:
            raise TruncatedData(f"expected {count} pixel bytes, found {found}")
        samples = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos + 1)
    else:
        samples = _p2_samples(data, pos, count)
    if samples.max() > maxval:
        raise MalformedHeader(f"pixel value above maxval {maxval}")
    return samples.astype(np.uint8).reshape(height, width)


def pgm_header(img: np.ndarray) -> bytes:
    """The canonical P5 header that write_pgm puts before img's raster."""
    height, width = img.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii")


def write_pgm(img: np.ndarray) -> bytes:
    """Serialize a grayscale image as canonical binary PGM (P5)."""
    img = as_gray(img)
    return b"".join((pgm_header(img), np.ascontiguousarray(img)))  # copies img only out of C order


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
