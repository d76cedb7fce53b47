"""Peak memory per pixel of each layer and of the container commands, on 1024x1024 images.

Noise is about one run per pixel, the container's worst case. The fill is a
synthetic_carrier at full capacity, where embed and extract touch the most
sites. Each pin is a tracemalloc peak of one call; README states what the
commands' pins come to at MAX_PIXELS.
"""

import tracemalloc

import numpy as np
import pytest

from stegrle.carrier import synthetic_carrier
from stegrle.cli import main
from stegrle.image import Rect, read_pgm, write_pgm
from stegrle.metrics import compare
from stegrle.rle import deserialize, rle_decode, rle_encode, serialize
from stegrle.stego import embed, extract

NOISE = np.random.default_rng(5).integers(0, 256, (1024, 1024), dtype=np.uint8)
STREAM = rle_encode(NOISE)
CONTAINER = serialize(STREAM)
CARRIER = synthetic_carrier(1024, 1024)
FULL = Rect(0, 0, 1023, 1023)
MESSAGE = b"*" * embed(CARRIER, FULL, b"*")[1].capacity  # 447,169 bytes, 0.43 per pixel
STEGO = embed(CARRIER, FULL, MESSAGE)[0]


def peak_per_pixel(call):
    """The tracemalloc peak of call(), per pixel of a 1024x1024 image, after an untraced call."""
    call()  # numpy's one-time set-up is not the call's
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / NOISE.size


# each pin is its peak measured on CPython 3.11 and numpy 2.4, plus at most 0.5
LAYER_PINS = {
    "rle_encode": (lambda: rle_encode(NOISE), 18.25),  # measured at 17.94
    "serialize": (lambda: serialize(STREAM), 15.25),  # 14.94: the records, then their bytes
    "deserialize": (lambda: deserialize(CONTAINER), 9.25),  # 8.97
    "rle_decode": (lambda: rle_decode(STREAM), 2.25),  # 2.00: the image and no copy of the lengths
    "compare": (lambda: compare(NOISE, STEGO), 3.5),  # 3.06, any two images of one size
    "extract": (lambda: extract(NOISE), 3.5),  # 3.02
    "fill-embed": (lambda: embed(CARRIER, FULL, MESSAGE), 4.75),  # 4.42
    # 6.83: np.extract's int64 index of the sites and its copy of the interior
    "fill-extract": (lambda: extract(STEGO), 7.25),
}


@pytest.mark.parametrize("layer", LAYER_PINS)
def test_layer_peak_memory_per_pixel(layer):
    call, pin = LAYER_PINS[layer]
    assert peak_per_pixel(call) <= pin


def test_read_p5_peak_memory_per_pixel():
    # the image alone: the raster is read in place in the file's bytes, not sliced out first
    data = write_pgm(NOISE)
    assert peak_per_pixel(lambda: read_pgm(data)) <= 1.25


def test_write_pgm_peak_memory_per_pixel():
    # the file's bytes alone: a C-ordered image is joined to its header without a copy
    assert peak_per_pixel(lambda: write_pgm(NOISE)) <= 1.25


def test_compress_peak_memory_per_pixel(tmp_path):
    # measured at 24.9: rle_encode's arrays, then serialize's records and their bytes
    (tmp_path / "in.pgm").write_bytes(write_pgm(NOISE))
    argv = ["compress", "--in", str(tmp_path / "in.pgm"), "--out", str(tmp_path / "out.srle")]
    assert peak_per_pixel(lambda: main(argv)) <= 25.5


def test_decompress_peak_memory_per_pixel(tmp_path):
    # measured at 14.0: the container's bytes are dropped once deserialize has parsed them
    (tmp_path / "in.srle").write_bytes(serialize(rle_encode(NOISE)))
    argv = ["decompress", "--in", str(tmp_path / "in.srle"), "--out", str(tmp_path / "out.pgm")]
    assert peak_per_pixel(lambda: main(argv)) <= 14.5
    assert (tmp_path / "out.pgm").read_bytes() == write_pgm(NOISE)
