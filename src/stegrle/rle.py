"""Run-length codec for grayscale images and the SRLE container format.

Encoding flattens the image row-major and replaces each maximal run of
equal pixels with a (value, length) pair, kept as two parallel vectors.
Encoder output is canonical: adjacent runs never share a value, so a given
image has exactly one encoding. The decoder does not rely on that and also
accepts streams with adjacent equal runs.

The SRLE container's byte layout is specified in ``docs/srle-format.md``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import BadMagic, LengthMismatch, TrailingGarbage, Truncated, UnsupportedVersion
from .image import as_gray, check_pixels, check_values

MAGIC = b"SRLE"
VERSION = 1
HEADER = struct.Struct("<4sBIII")
RUN_DTYPE = np.dtype([("value", "<u1"), ("length", "<u4")])


@dataclass
class RunLengthStream:
    """Run-length form of an image: dimensions plus parallel value/length vectors."""

    width: int
    height: int
    values: np.ndarray = field(repr=False)
    lengths: np.ndarray = field(repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunLengthStream):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.lengths, other.lengths)
        )

    def runs(self) -> list[tuple[int, int]]:
        """The stream as (value, length) pairs."""
        return [(int(v), int(n)) for v, n in zip(self.values, self.lengths)]


def rle_encode(img: np.ndarray) -> RunLengthStream:
    """Encode an image into maximal row-major runs (canonical form)."""
    img = as_gray(img)
    height, width = img.shape
    flat = img.ravel()
    change = np.ones(flat.size + 1, dtype=bool)  # both ends, and every index where a run starts
    np.not_equal(flat[1:], flat[:-1], out=change[1:-1])
    edges = np.flatnonzero(change)
    return RunLengthStream(width, height, values=flat[edges[:-1]], lengths=np.diff(edges))


def _check_lengths(lengths, width: int, height: int) -> np.ndarray:
    """Return lengths as int64 if 1+ long runs cover a 1+ by 1+ image of <= MAX_PIXELS pixels."""
    if width < 1 or height < 1:
        raise LengthMismatch(f"invalid dimensions {width}x{height}")
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size and int(lengths.min()) < 1:
        raise LengthMismatch(f"run of length {int(lengths.min())}; runs must be at least 1 long")
    total = int(lengths.sum())
    if total != width * height:
        raise LengthMismatch(f"run lengths sum to {total}, image needs {width * height} pixels")
    check_pixels(width, height)
    return lengths


def rle_decode(stream: RunLengthStream) -> np.ndarray:
    """Expand a run-length stream back into the original image."""
    lengths = _check_lengths(stream.lengths, stream.width, stream.height)
    flat = np.repeat(check_values(stream.values), lengths)
    return flat.reshape(stream.height, stream.width)


def serialize(stream: RunLengthStream) -> bytes:
    """Pack a run-length stream into SRLE container bytes."""
    count = len(stream.values)
    records = np.empty(count, dtype=RUN_DTYPE)
    records["value"] = check_values(stream.values)
    records["length"] = stream.lengths
    header = HEADER.pack(MAGIC, VERSION, stream.width, stream.height, count)
    return header + records.tobytes()


def deserialize(data: bytes) -> RunLengthStream:
    """Parse and validate SRLE container bytes."""
    data = bytes(data)
    if len(data) >= 4 and data[:4] != MAGIC:
        raise BadMagic(f"expected {MAGIC!r}, found {data[:4]!r}")
    if len(data) < HEADER.size:
        raise Truncated(f"container header needs {HEADER.size} bytes, got {len(data)}")
    _, version, width, height, count = HEADER.unpack_from(data)
    if version != VERSION:
        raise UnsupportedVersion(f"version {version} not supported")
    expected_size = HEADER.size + RUN_DTYPE.itemsize * count
    if len(data) < expected_size:
        raise Truncated(f"container needs {expected_size} bytes, got {len(data)}")
    if len(data) > expected_size:
        raise TrailingGarbage(f"{len(data) - expected_size} byte(s) after last run")
    records = np.frombuffer(data, dtype=RUN_DTYPE, count=count, offset=HEADER.size)
    lengths = _check_lengths(records["length"], width, height)
    return RunLengthStream(
        width=width,
        height=height,
        values=records["value"].copy(),
        lengths=lengths,
    )
