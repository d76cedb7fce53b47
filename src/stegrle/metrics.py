"""Image fidelity metrics: mean squared error and peak signal-to-noise ratio."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .image import as_gray

PEAK = 255  # largest value an 8-bit pixel can take


@dataclass(frozen=True)
class QualityReport:
    """MSE / PSNR pair for one image comparison; psnr is inf when mse is 0."""

    mse: float
    psnr: float


def _pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b = as_gray(a), as_gray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"image shapes differ: {a.shape} vs {b.shape}")
    return a, b


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared pixel difference, accumulated exactly before one division."""
    a, b = _pair(a, b)
    diff = np.subtract(a, b, dtype=np.int16)
    return int(np.square(diff, dtype=np.int32).sum(dtype=np.int64)) / a.size


def _psnr_of_mse(error: float) -> float:
    return math.inf if error == 0 else 10.0 * math.log10(PEAK * PEAK / error)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10*log10(255^2 / mse) in decibels; infinite for identical images."""
    return _psnr_of_mse(mse(a, b))


def compare(a: np.ndarray, b: np.ndarray) -> QualityReport:
    """Both metrics at once."""
    error = mse(a, b)
    return QualityReport(mse=error, psnr=_psnr_of_mse(error))
