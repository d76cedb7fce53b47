"""Synthetic test carriers: zero background with one solid bright blob.

Real scans from the scheme's target setting are not redistributable, so
tests and demos run on generated stand-ins that share the property the
embedder needs: large zero regions, and no interior nonzero pixel sitting
alone in a zero neighbourhood.
"""

from __future__ import annotations

import numpy as np

from .image import check_pixels


def synthetic_carrier(
    width: int = 256,
    height: int = 256,
    *,
    blob_cx: int | None = None,
    blob_cy: int | None = None,
    blob_radius: int | None = None,
    blob_value: int = 200,
) -> np.ndarray:
    """Zero image with a filled disk of blob_value; safe to embed into.

    The disk defaults to the image centre with radius min(width, height)//5.
    Every geometry validates clean. Radius is at least 1, so each disk pixel
    has a disk neighbour one step towards the centre (the centre has four);
    off the border that neighbour is in the image, so extract reads nothing.
    """
    if width < 1 or height < 1:
        raise ValueError(f"dimensions must be at least 1x1, got {width}x{height}")
    check_pixels(width, height)
    if not 1 <= blob_value <= 255:
        raise ValueError(f"blob_value must be in 1..255, got {blob_value}")
    cx = width // 2 if blob_cx is None else blob_cx
    cy = height // 2 if blob_cy is None else blob_cy
    radius = max(1, min(width, height) // 5) if blob_radius is None else blob_radius
    if radius < 1:
        raise ValueError(f"blob_radius must be at least 1, got {blob_radius}")

    img = np.zeros((height, width), dtype=np.uint8)
    yy, xx = np.ogrid[:height, :width]
    disk = (xx - cx) ** 2 + (yy - cy) ** 2 <= radius * radius
    img[disk] = blob_value
    return img
