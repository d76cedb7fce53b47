"""Peak memory per pixel of the PGM layer and the container commands, on 1024x1024 noise.

Noise is about one run per pixel, the container's worst case. Each pin is a
tracemalloc peak of one call; README states what the commands' pins come to
at MAX_PIXELS.
"""

import tracemalloc

import numpy as np

from stegrle.cli import main
from stegrle.image import read_pgm, write_pgm
from stegrle.rle import rle_encode, serialize

NOISE = np.random.default_rng(5).integers(0, 256, (1024, 1024), dtype=np.uint8)


def peak_per_pixel(call):
    """The tracemalloc peak of call(), per pixel of NOISE, after a first call that is not traced."""
    call()  # numpy's one-time set-up is not the call's
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / NOISE.size


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
