"""Hide message bytes at isolated zero pixels and exactly invert the hiding.

A pixel can carry a byte only if it is zero and its four orthogonal
neighbours (up, down, left, right) are zero as well; border pixels never
qualify because part of their neighbourhood is off the image. Embedding
walks such sites in row-major order inside the caller's ROI and replaces
each with one message byte. Because a written byte is nonzero, it
disqualifies its own neighbours for later bytes, so eligibility is always
judged against the working image, not the untouched carrier.

The receiver needs no key and no ROI: every non-border nonzero pixel whose
four neighbours are zero is read back as a message byte and reset to zero.
The inversion is exact only if the carrier holds no such pixel, so
``validate_carrier`` lists exactly those and ``embed`` refuses a carrier
that has any.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousCarrier, CapacityExceeded, NonLatinCharacter, NulCharacter
from .image import Rect, as_gray, check_rect

Site = tuple[int, int]


@dataclass(frozen=True)
class EmbedReport:
    """What an embed run did: bytes written and room available.

    The sites written, in order, are ``validate_carrier(stego)``.
    """

    bytes_hidden: int
    capacity: int


def text_to_bytes(text: str) -> bytes:
    """Map each character to its code point; only 1..255 are embeddable."""
    bad = re.search(r"[^\x01-\xff]", text)  # first character outside 1..255
    if bad and bad[0] == "\x00":
        raise NulCharacter("NUL cannot be hidden; zero marks an empty pixel")
    if bad:
        raise NonLatinCharacter(f"character {bad[0]!r} has no single-byte code")
    return text.encode("latin-1")


def bytes_to_text(message: bytes) -> str:
    """Inverse of text_to_bytes."""
    return bytes(message).decode("latin-1")


def _quiet(img: np.ndarray) -> np.ndarray:
    """Mask over img[1:-1, 1:-1]: interior pixels whose four neighbours are all zero."""
    zero = img == 0
    return zero[:-2, 1:-1] & zero[2:, 1:-1] & zero[1:-1, :-2] & zero[1:-1, 2:]


def _hidden(img: np.ndarray) -> np.ndarray:
    """Mask over img[1:-1, 1:-1] of the pixels extract reads: nonzero and quiet."""
    return _quiet(img) & (img[1:-1, 1:-1] != 0)


def _mask_sites(mask: np.ndarray, x0: int, y0: int) -> list[Site]:
    """Row-major (x, y) coordinates of the true cells of a mask whose top-left is (x0, y0)."""
    ys, xs = np.divmod(np.flatnonzero(mask), mask.shape[1])
    return list(zip((xs + x0).tolist(), (ys + y0).tolist()))


def _candidates(img: np.ndarray, roi: Rect) -> tuple[np.ndarray, int, int]:
    """Embeddable-site mask of roi clipped to the interior, and its top-left (x, y)."""
    img = as_gray(img)
    check_rect(img, roi)
    x0, y0 = max(roi.x0, 1), max(roi.y0, 1)
    x1, y1 = min(roi.x1, img.shape[1] - 2), min(roi.y1, img.shape[0] - 2)
    window = img[y0 - 1 : y1 + 2, x0 - 1 : x1 + 2]  # the clipped roi and its neighbours
    return _quiet(window) & (window[1:-1, 1:-1] == 0), x0, y0


def _claimed(img: np.ndarray, roi: Rect) -> tuple[np.ndarray, int, int]:
    """Mask of the sites one embedding pass fills, over the _candidates window.

    Each row is an int whose bit x is column x. Adding a free run's first bit carries
    through the run and clears it, which finds the runs that claim their even columns.
    """
    cand, x0, y0 = _candidates(img, roi)
    rows = np.packbits(cand, axis=1, bitorder="little")
    size, bits = rows.shape[1], rows.tobytes()  # tobytes is row-major for any layout
    even = int.from_bytes(b"\x55" * size, "little")  # the bits of columns 0, 2, 4, ...
    above, claims = 0, bytearray()
    for y in range(len(rows)):
        free = int.from_bytes(bits[y * size : (y + 1) * size], "little") & ~above
        starts = free & ~(free << 1)
        runs = free & ~(free + (starts & even))  # the runs that start at an even column
        above = (runs & even) | (free & ~runs & ~even)
        claims += above.to_bytes(size, "little")
    claimed = np.frombuffer(claims, np.uint8).reshape(rows.shape)
    return np.unpackbits(claimed, axis=1, count=cand.shape[1], bitorder="little").view(bool), x0, y0


def scan_candidates(img: np.ndarray, roi: Rect) -> list[Site]:
    """All embeddable sites of the unmodified image inside roi, row-major.

    A site's neighbours may lie outside the ROI; they only have to be inside
    the image and zero.
    """
    return _mask_sites(*_candidates(img, roi))


def validate_carrier(img: np.ndarray) -> list[Site]:
    """Sites ``extract`` would misread as hidden bytes, row-major.

    These are exactly the pixels ``extract`` reads: non-border, nonzero, with
    all four neighbours zero. An empty list means the carrier is safe to
    embed into.
    """
    return _mask_sites(_hidden(as_gray(img)), 1, 1)


def embedding_sites(img: np.ndarray, roi: Rect) -> list[Site]:
    """Sites usable in one embedding pass, in the order bytes would fill them.

    Each write disqualifies its neighbours for later bytes, so the list length,
    not the candidate count, is the true capacity.
    """
    return _mask_sites(*_claimed(img, roi))


def embed(img: np.ndarray, roi: Rect, message: bytes) -> tuple[np.ndarray, EmbedReport]:
    """Hide message bytes in a copy of img; returns (stego image, report).

    The carrier must validate clean and the message must contain no zero
    bytes and fit the ROI's capacity.
    """
    img = as_gray(img)
    check_rect(img, roi)
    message = np.frombuffer(bytes(message), np.uint8)
    if 0 in message:
        raise NulCharacter("message bytes must be in 1..255")
    hidden = _hidden(img)
    ambiguous = int(np.count_nonzero(hidden))  # not validate_carrier's list: memory per site
    if ambiguous:
        y, x = divmod(int(hidden.argmax()), hidden.shape[1])  # the first in row-major order
        raise AmbiguousCarrier(
            f"carrier has {ambiguous} isolated nonzero pixel(s), "
            f"first at {(x + 1, y + 1)}; extraction would misread them"
        )
    claimed, x0, y0 = _claimed(img, roi)
    capacity = int(np.count_nonzero(claimed))
    if len(message) > capacity:
        raise CapacityExceeded(
            f"message needs {len(message)} sites but ROI offers {capacity}",
            capacity=capacity,
            needed=len(message),
        )
    # claimed sites are zero in the carrier, so the zeros after the message change no pixel
    fill = np.concatenate([message, np.zeros(capacity - len(message), np.uint8)])
    stego = img.copy()
    np.place(stego[y0 : y0 + len(claimed), x0 : x0 + claimed.shape[1]], claimed, fill)
    return stego, EmbedReport(len(message), capacity)


def extract(stego: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Recover (message, restored image) from a stego image.

    Scans the whole image row-major for non-border nonzero pixels whose
    4-neighbourhood is zero; each match contributes its value as the next
    message byte and is zeroed in the restored copy. On an image without
    matches this returns an empty message and an unchanged copy.
    """
    stego = as_gray(stego)
    mask = _hidden(stego)
    restored = stego.copy()
    restored[1:-1, 1:-1] *= ~mask
    return np.extract(mask, stego[1:-1, 1:-1]).tobytes(), restored
