import math

import numpy as np
import pytest

from stegrle import pipeline
from stegrle.carrier import synthetic_carrier
from stegrle.errors import AmbiguousCarrier, CapacityExceeded, VerificationFailed
from stegrle.image import Rect
from stegrle.pipeline import PHASES, run_pipeline
from stegrle.stego import embed, text_to_bytes

ROI = Rect(1, 1, 60, 60)
MESSAGE = text_to_bytes("GRI pid:007")


def test_pipeline_is_lossless():
    carrier = synthetic_carrier()
    result = run_pipeline(carrier, ROI, MESSAGE)
    assert result.message_out == MESSAGE
    assert np.array_equal(result.restored, carrier)
    assert result.restored_quality.mse == 0
    assert math.isinf(result.restored_quality.psnr)


def test_pipeline_reports_stego_quality():
    result = run_pipeline(synthetic_carrier(), ROI, MESSAGE)
    assert result.stego_quality.mse == pytest.approx(0.9565, abs=1e-4)
    assert result.stego_quality.psnr == pytest.approx(48.3240, abs=1e-3)


def test_pipeline_timing_shape():
    result = run_pipeline(synthetic_carrier(), ROI, MESSAGE)
    assert tuple(result.timing.phases) == PHASES
    assert all(v >= 0 for v in result.timing.phases.values())
    assert result.timing.total == pytest.approx(
        sum(result.timing.phases.values()), abs=1e-3
    )


def test_pipeline_names_failing_phase():
    noisy = synthetic_carrier()
    noisy[2, 200] = 99  # isolated pixel, carrier no longer safe
    with pytest.raises(AmbiguousCarrier) as err:
        run_pipeline(noisy, ROI, MESSAGE)
    assert "data-hiding" in str(err.value)


def test_pipeline_propagates_capacity_error():
    carrier = synthetic_carrier()
    with pytest.raises(CapacityExceeded) as err:
        run_pipeline(carrier, Rect(1, 1, 2, 2), bytes([9] * 50))
    assert "data-hiding" in str(err.value)
    with pytest.raises(CapacityExceeded) as direct:
        embed(carrier, Rect(1, 1, 2, 2), bytes([9] * 50))
    assert str(err.value) == f"data-hiding phase failed: {direct.value}"


def changed_first(data):
    """data with its first byte or pixel changed."""
    if isinstance(data, bytes):
        return bytes([data[0] ^ 1]) + data[1:]
    changed = data.copy()
    changed.flat[0] ^= 1
    return changed


@pytest.mark.parametrize(
    "layer, corrupt, error",
    [
        ("rle_decode", changed_first, "decompressed image differs from stego image"),
        ("extract", lambda out: (changed_first(out[0]), out[1]), "recovered message differs"),
        ("extract", lambda out: (out[0], changed_first(out[1])), "restored image differs"),
    ],
    ids=["decompressed-pixel", "message-byte", "restored-pixel"],
)
def test_pipeline_refuses_a_round_trip_that_changes_one_pixel_or_byte(
    monkeypatch, layer, corrupt, error
):
    real = getattr(pipeline, layer)
    monkeypatch.setattr(pipeline, layer, lambda *args: corrupt(real(*args)))
    with pytest.raises(VerificationFailed, match=error):
        run_pipeline(synthetic_carrier(), ROI, MESSAGE)


def test_pipeline_container_is_compact():
    result = run_pipeline(synthetic_carrier(), ROI, MESSAGE)
    assert len(result.container) < 0.25 * result.stego.size
