"""Exception hierarchy.

Every error class carries a stable ``exit_code`` so the command-line front
end can map failures to distinct process exit statuses, and a ``token``
(the class name) that is printed as the machine-readable error name.
"""


class StegRleError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1

    @property
    def token(self) -> str:
        return type(self).__name__


class VerificationFailed(StegRleError):
    """Pipeline self-check found a mismatch between input and round-trip output."""

    exit_code = 4


# --- PGM / image geometry ---

class MalformedHeader(StegRleError):
    """PGM header is missing fields, non-numeric, or has an unknown magic."""

    exit_code = 10


class TruncatedData(StegRleError):
    """PGM raster holds fewer pixels than the declared dimensions."""

    exit_code = 11


class UnsupportedMaxval(StegRleError):
    """PGM maxval above 255; only 8-bit images are handled."""

    exit_code = 12


class RectOutOfBounds(StegRleError):
    """ROI rectangle does not fit inside the image it is applied to."""

    exit_code = 13


# --- message / embedding ---

class NonLatinCharacter(StegRleError):
    """Message character has a code point above 255."""

    exit_code = 14


class NulCharacter(StegRleError):
    """Message contains a zero byte, indistinguishable from an empty pixel."""

    exit_code = 15


class EmptyMessage(StegRleError):
    """Empty message given to the CLI, which always refuses one."""

    exit_code = 24


class CapacityExceeded(StegRleError):
    """Message does not fit in the usable embedding sites of the ROI."""

    exit_code = 16

    def __init__(self, message: str, capacity: int = 0, needed: int = 0):
        super().__init__(message)
        self.capacity = capacity
        self.needed = needed


class AmbiguousCarrier(StegRleError):
    """Carrier already contains pixels the extractor would read as message bytes."""

    exit_code = 17


# --- run-length codec / container ---

class LengthMismatch(StegRleError):
    """Run lengths are invalid or do not sum to the pixel count."""

    exit_code = 18


class BadMagic(StegRleError):
    """Container does not start with the SRLE magic bytes."""

    exit_code = 19


class UnsupportedVersion(StegRleError):
    """Container declares a format version this reader does not know."""

    exit_code = 20


class Truncated(StegRleError):
    """Container ends before the declared run records are complete."""

    exit_code = 21


class TrailingGarbage(StegRleError):
    """Container has extra bytes after the last declared run record."""

    exit_code = 22


class PixelBudgetExceeded(StegRleError):
    """A PGM or SRLE header declares more pixels than the readers will allocate."""

    exit_code = 25


# --- metrics ---

class DimensionMismatch(StegRleError):
    """Compared images do not share the same width and height."""

    exit_code = 23
