import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import brute_mse
from stegrle.errors import DimensionMismatch
from stegrle.metrics import PEAK, compare

PATIENT_BYTES = [71, 82, 73, 32, 112, 105, 100, 58, 48, 48, 55]

images = arrays(
    np.uint8,
    st.tuples(st.integers(1, 16), st.integers(1, 16)),
    elements=st.integers(0, 255),
)


def tagged_image_pair():
    """256x256 zero image and a copy differing only by the hidden bytes."""
    a = np.zeros((256, 256), dtype=np.uint8)
    b = a.copy()
    for i, value in enumerate(PATIENT_BYTES):
        b[3 + 2 * i, 5] = value
    return a, b


def test_identical_images():
    img = np.arange(64, dtype=np.uint8).reshape(8, 8)
    assert compare(img, img).mse == 0
    assert compare(img, img).psnr == math.inf


def test_single_max_difference():
    assert compare([[0]], [[255]]).mse == 65025
    assert compare([[0]], [[255]]).psnr == 0.0


def test_mse_does_not_overflow_at_the_extreme():
    white = np.full((2048, 2048), 255, dtype=np.uint8)
    assert compare(white, np.zeros_like(white)).mse == 65025.0


def test_stego_distortion_golden_value():
    a, b = tagged_image_pair()
    expected_sum = sum(v * v for v in PATIENT_BYTES)  # independent summation
    assert expected_sum == 62684
    assert compare(a, b).mse == expected_sum / 65536
    assert compare(a, b).mse == pytest.approx(0.9565, abs=1e-4)
    assert compare(a, b).psnr == pytest.approx(48.3240, abs=1e-3)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compare(np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(DimensionMismatch):
        compare(np.zeros((2, 2), dtype=np.uint8), np.zeros((3, 2), dtype=np.uint8))


def test_compare_identical_reports_infinite_psnr():
    img = np.full((4, 4), 7, dtype=np.uint8)
    report = compare(img, img)
    assert report.mse == 0
    assert math.isinf(report.psnr)


@given(images, st.data())
def test_symmetry(a, data):
    b = data.draw(
        arrays(np.uint8, st.just(a.shape), elements=st.integers(0, 255))
    )
    assert compare(a, b).mse == compare(b, a).mse
    assert compare(a, b).psnr == compare(b, a).psnr


@given(images, st.data())
def test_matches_brute_force(a, data):
    b = data.draw(
        arrays(np.uint8, st.just(a.shape), elements=st.integers(0, 255))
    )
    assert compare(a, b).mse == brute_mse(a, b)


def test_psnr_formulations_agree_on_1000_random_pairs():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        h, w = rng.integers(1, 16, size=2)
        a = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        b = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        error = compare(a, b).mse
        if error == 0:
            continue
        via_ratio = 10 * math.log10(PEAK**2 / error)
        via_root = 20 * math.log10(PEAK / math.sqrt(error))
        via_difference = 20 * math.log10(PEAK) - 10 * math.log10(error)
        value = compare(a, b).psnr
        assert value == pytest.approx(via_ratio, abs=1e-9)
        assert value == pytest.approx(via_root, abs=1e-9)
        assert value == pytest.approx(via_difference, abs=1e-9)
        checked += 1


def int64_mse(a, b):
    return int(((a.astype(np.int64) - b.astype(np.int64)) ** 2).sum()) / a.size


def test_compare_is_the_exact_int64_mse():
    rng = np.random.default_rng(21)
    for _ in range(200):
        shape = tuple(rng.integers(1, 300, size=2))
        a = rng.integers(0, 256, shape, dtype=np.uint8)
        kind = rng.integers(0, 3)
        if kind == 0:  # independent noise
            b = rng.integers(0, 256, shape, dtype=np.uint8)
        elif kind == 1:  # a few pixels apart, as a stego image is
            b = a.copy()
            b.flat[rng.integers(0, a.size, 5)] = rng.integers(0, 256, 5, dtype=np.uint8)
        else:  # only the extremes, so every difference is 0 or 255 either way round
            a = rng.choice(np.array([0, 255], dtype=np.uint8), shape)
            b = rng.choice(np.array([0, 255], dtype=np.uint8), shape)
        assert compare(a, b).mse == int64_mse(a, b) == compare(b, a).mse
    white = np.full((512, 512), 255, dtype=np.uint8)
    for pair in ((white, np.zeros_like(white)), (np.zeros_like(white), white)):
        assert compare(*pair).mse == int64_mse(*pair) == 65025
        assert compare(*pair).psnr == 0.0


def test_compare_peak_memory_per_pixel():
    rng = np.random.default_rng(4)
    a, b = (rng.integers(0, 256, (1024, 1024), dtype=np.uint8) for _ in range(2))
    compare(a, b)  # numpy's one-time set-up is not compare's
    tracemalloc.start()
    try:
        report = compare(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.mse == int64_mse(a, b)
    assert peak <= 3.5 * a.size  # 1 B of uint8 difference and 2 B of uint16 squares
