"""Synthetic test carriers: zero background with one solid bright disk.

Real scans from the scheme's target setting are not redistributable, so
tests and demos run on generated stand-ins that share the property the
embedder needs: large zero regions, and no interior nonzero pixel sitting
alone in a zero neighbourhood.
"""

from __future__ import annotations

import numpy as np

from .image import check_pixels


def synthetic_carrier(width: int = 256, height: int = 256) -> np.ndarray:
    """Zero image with a filled disk of value 200; safe to embed into.

    The disk is centred at (width//2, height//2) with radius
    max(1, min(width, height)//5). It validates clean at every size: each
    disk pixel has a disk neighbour one step towards the centre (the centre
    has four), and off the border that neighbour is in the image, so extract
    reads nothing.
    """
    if width < 1 or height < 1:
        raise ValueError(f"dimensions must be at least 1x1, got {width}x{height}")
    check_pixels(width, height)
    radius = max(1, min(width, height) // 5)
    img = np.zeros((height, width), dtype=np.uint8)
    yy, xx = np.ogrid[:height, :width]
    img[(xx - width // 2) ** 2 + (yy - height // 2) ** 2 <= radius * radius] = 200
    return img
