import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import brute_mse
from stegrle.errors import DimensionMismatch
from stegrle.metrics import PEAK, compare, mse, psnr

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
    assert mse(img, img) == 0
    assert psnr(img, img) == math.inf


def test_single_max_difference():
    assert mse([[0]], [[255]]) == 65025
    assert psnr([[0]], [[255]]) == 0.0


def test_mse_does_not_overflow_at_the_extreme():
    white = np.full((2048, 2048), 255, dtype=np.uint8)
    assert mse(white, np.zeros_like(white)) == 65025.0


def test_stego_distortion_golden_value():
    a, b = tagged_image_pair()
    expected_sum = sum(v * v for v in PATIENT_BYTES)  # independent summation
    assert expected_sum == 62684
    assert mse(a, b) == expected_sum / 65536
    assert mse(a, b) == pytest.approx(0.9565, abs=1e-4)
    assert psnr(a, b) == pytest.approx(48.3240, abs=1e-3)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mse(np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(DimensionMismatch):
        psnr(np.zeros((2, 2), dtype=np.uint8), np.zeros((3, 2), dtype=np.uint8))


def test_compare_bundles_both_metrics():
    a, b = tagged_image_pair()
    report = compare(a, b)
    assert report.mse == mse(a, b)
    assert report.psnr == psnr(a, b)


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
    assert mse(a, b) == mse(b, a)
    assert psnr(a, b) == psnr(b, a)


@given(images, st.data())
def test_matches_brute_force(a, data):
    b = data.draw(
        arrays(np.uint8, st.just(a.shape), elements=st.integers(0, 255))
    )
    assert mse(a, b) == brute_mse(a, b)


def test_psnr_formulations_agree_on_1000_random_pairs():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        h, w = rng.integers(1, 16, size=2)
        a = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        b = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        error = mse(a, b)
        if error == 0:
            continue
        via_ratio = 10 * math.log10(PEAK**2 / error)
        via_root = 20 * math.log10(PEAK / math.sqrt(error))
        via_difference = 20 * math.log10(PEAK) - 10 * math.log10(error)
        value = psnr(a, b)
        assert value == pytest.approx(via_ratio, abs=1e-9)
        assert value == pytest.approx(via_root, abs=1e-9)
        assert value == pytest.approx(via_difference, abs=1e-9)
        checked += 1
