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


def compare(a: np.ndarray, b: np.ndarray) -> QualityReport:
    """MSE and PSNR of two same-shaped images.

    The squared differences are summed exactly before one division; PSNR is
    10*log10(255^2 / mse) in decibels, infinite for identical images.
    """
    a, b = as_gray(a), as_gray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"image shapes differ: {a.shape} vs {b.shape}")
    diff = np.subtract(a, b, dtype=np.int16)
    error = int(np.square(diff, dtype=np.int32).sum(dtype=np.int64)) / a.size
    psnr = math.inf if error == 0 else 10.0 * math.log10(PEAK * PEAK / error)
    return QualityReport(mse=error, psnr=psnr)
