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
from .image import as_gray, check_pixels, check_values, shown

MAGIC = b"SRLE"
VERSION = 1
HEADER = struct.Struct("<4sBIII")
RUN_DTYPE = np.dtype([("value", "<u1"), ("length", "<u4")])


@dataclass(frozen=True, eq=False)
class RunLengthStream:
    """Run-length form of an image: dimensions plus parallel value/length vectors.

    Building one checks the SRLE stream rule; serialize and rle_decode take every stream as valid.
    It is read-only once built, but keeps the arrays it is given (as read-only views, not copies).
    """

    width: int
    height: int
    values: np.ndarray = field(repr=False)
    lengths: np.ndarray = field(repr=False)
    _repeats: np.ndarray = field(init=False, repr=False)  # lengths before the read-only view

    def __post_init__(self) -> None:
        """Apply rules 6 to 8 of docs/srle-format.md, equal vector sizes and 0..255 values."""
        if not all(isinstance(n, (int, np.integer)) and n >= 1 for n in (self.width, self.height)):
            raise LengthMismatch(f"invalid dimensions {shown(self.width)}x{shown(self.height)}")
        pixels = check_pixels(self.width, self.height)
        lengths = np.asarray(self.lengths)
        if lengths.size and not np.issubdtype(lengths.dtype, np.integer):  # [] is float64
            raise LengthMismatch(f"run lengths must be integers, got dtype {lengths.dtype}")
        if lengths.size and (shortest := int(lengths.min())) < 1:
            raise LengthMismatch(f"run of length {shortest}; runs must be at least 1 long")
        if lengths.size and (longest := int(lengths.max())) > pixels:
            raise LengthMismatch(f"run of length {longest} is longer than the image")
        if (total := int(lengths.sum())) != pixels:
            raise LengthMismatch(f"run lengths sum to {total}, image needs {pixels} pixels")
        lengths = lengths.astype(np.int64, copy=False)
        values = np.asarray(self.values)
        if lengths.ndim != 1 or values.shape != lengths.shape:
            raise LengthMismatch(f"values of shape {values.shape}, lengths of {lengths.shape}")
        for name, array in (("values", check_values(values)), ("lengths", lengths)):
            view = array.view()  # read-only without freezing the caller's own array
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        object.__setattr__(self, "_repeats", lengths)

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


def rle_decode(stream: RunLengthStream) -> np.ndarray:
    """Expand a run-length stream back into the original image."""
    # np.repeat copies a read-only repeats array, such as the public lengths view
    return np.repeat(stream.values, stream._repeats).reshape(stream.height, stream.width)


def serialize(stream: RunLengthStream) -> bytes:
    """Pack a run-length stream into SRLE container bytes."""
    count = len(stream.values)
    records = np.empty(count, dtype=RUN_DTYPE)
    records["value"] = stream.values
    records["length"] = stream.lengths  # fits the u32: runs sum to at most MAX_PIXELS = 2**28
    return HEADER.pack(MAGIC, VERSION, stream.width, stream.height, count) + records.tobytes()


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
    values, lengths = records["value"].copy(), records["length"].astype(np.int64)
    return RunLengthStream(width, height, values=values, lengths=lengths)
