"""The three phases wired end to end, with per-phase wall-clock timing.

Order: hide the message, run-length-compress the stego image into a
container, decompress it, recover message and carrier. The run verifies
itself: the decompressed image must equal the stego image bit for bit, the
recovered message must equal the input, and the restored image must equal
the carrier. Each phase is timed once, with a monotonic clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import StegRleError, VerificationFailed
from .image import Rect
from .metrics import QualityReport, compare
from .rle import deserialize, rle_decode, rle_encode, serialize
from .stego import EmbedReport, embed, extract

PHASES = ("data-hiding", "rle-encode", "rle-decode", "data-retrieval")


@dataclass
class TimingReport:
    """Seconds for each phase of one pass, in PHASES order; total is their sum."""

    phases: dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.phases.values())


@dataclass
class PipelineResult:
    stego: np.ndarray
    container: bytes
    restored: np.ndarray
    message_out: bytes
    embed_report: EmbedReport
    timing: TimingReport
    stego_quality: QualityReport
    restored_quality: QualityReport


def _timed(seconds: dict[str, float], phase: str, fn):
    """Run one phase and record its time; name the phase on failure."""
    start = time.perf_counter()
    try:
        result = fn()
    except StegRleError as exc:
        exc.args = (f"{phase} phase failed: {exc}",)
        raise
    seconds[phase] = time.perf_counter() - start
    return result


def run_pipeline(carrier: np.ndarray, roi: Rect, message: bytes) -> PipelineResult:
    """Embed, compress, decompress, extract; verify losslessness; time phases."""
    message = bytes(message)
    seconds: dict[str, float] = {}
    stego, report = _timed(seconds, "data-hiding", lambda: embed(carrier, roi, message))
    container = _timed(seconds, "rle-encode", lambda: serialize(rle_encode(stego)))
    decompressed = _timed(seconds, "rle-decode", lambda: rle_decode(deserialize(container)))
    message_out, restored = _timed(seconds, "data-retrieval", lambda: extract(decompressed))

    if not np.array_equal(decompressed, stego):
        raise VerificationFailed("decompressed image differs from stego image")
    if message_out != message:
        raise VerificationFailed("recovered message differs from input")
    restored_quality = compare(carrier, restored)
    if restored_quality.mse:
        raise VerificationFailed("restored image differs from carrier")

    return PipelineResult(
        stego=stego,
        container=container,
        restored=restored,
        message_out=message_out,
        embed_report=report,
        timing=TimingReport(phases=seconds),
        stego_quality=compare(carrier, stego),
        restored_quality=restored_quality,
    )
