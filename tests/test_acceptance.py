"""Acceptance suite: one test per shipping criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
failure output) in addition to its asserts, so a run doubles as a checklist.
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import brute_candidates, brute_extract, brute_rle, parse_container
from stegrle.carrier import synthetic_carrier
from stegrle.cli import main
from stegrle.image import Rect, load_pgm, save_pgm
from stegrle.metrics import compare
from stegrle.pipeline import PHASES, run_pipeline
from stegrle.rle import deserialize, rle_decode, rle_encode, serialize
from stegrle.stego import (
    bytes_to_text,
    embed,
    embedding_sites,
    extract,
    scan_candidates,
    text_to_bytes,
)

PATIENT_TAG = "GRI pid:007"
PATIENT_BYTES = bytes([71, 82, 73, 32, 112, 105, 100, 58, 48, 48, 55])
SAMPLE_VECTOR = [109, 109, 99, 99, 99, 99, 99, 97, 97, 97]
ROI = Rect(1, 1, 60, 60)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    print(f"PASS: {name}")


def random_case(rng):
    """One (carrier, roi, message) triple; carrier is dominoes on zeros."""
    width = int(rng.integers(8, 33))
    height = int(rng.integers(8, 33))
    img = np.zeros((height, width), dtype=np.uint8)
    for _ in range(int(rng.integers(0, 5))):
        x = int(rng.integers(0, width - 1))
        y = int(rng.integers(0, height))
        img[y, x : x + 2] = rng.integers(1, 256, size=2)
    x0 = int(rng.integers(0, width // 2))
    y0 = int(rng.integers(0, height // 2))
    roi = Rect(x0, y0, int(rng.integers(x0, width)), int(rng.integers(y0, height)))
    roi = Rect(roi.x0, roi.y0, min(roi.x1, width - 1), min(roi.y1, height - 1))
    capacity = len(embedding_sites(img, roi))
    wanted = int(rng.integers(0, 65))
    message = bytes(int(v) for v in rng.integers(1, 256, size=min(wanted, capacity)))
    return img, roi, message


def test_criterion_1_secret_message_conversion():
    with criterion("1 text/byte conversion golden value and inverse"):
        assert text_to_bytes(PATIENT_TAG) == PATIENT_BYTES
        assert list(PATIENT_BYTES) == [71, 82, 73, 32, 112, 105, 100, 58, 48, 48, 55]
        assert bytes_to_text(PATIENT_BYTES) == PATIENT_TAG


def test_criterion_2_run_length_golden_vector():
    with criterion("2 run-length golden vector and exact inverse"):
        img = np.asarray([SAMPLE_VECTOR], dtype=np.uint8)
        stream = rle_encode(img)
        assert stream.values.tolist() == [109, 99, 97]
        assert stream.lengths.tolist() == [2, 5, 3]
        assert np.array_equal(rle_decode(stream), img)


def test_criterion_3_stego_distortion_reproduction():
    with criterion("3 stego distortion mse 0.9565 +/- 0.0001, psnr 48.3240 +/- 0.001"):
        squares = 0
        for value in PATIENT_BYTES:  # independent brute-force summation
            squares += value * value
        assert squares == 62684

        carrier = synthetic_carrier(256, 256)
        stego, report = embed(carrier, ROI, PATIENT_BYTES)
        assert report.bytes_hidden == 11
        assert compare(carrier, stego).mse == squares / 65536
        assert compare(carrier, stego).mse == pytest.approx(0.9565, abs=1e-4)
        assert compare(carrier, stego).psnr == pytest.approx(48.3240, abs=1e-3)


def test_criterion_4_lossless_reproduction():
    with criterion("4 lossless round trip, golden case plus 500 random triples"):
        cases = [(synthetic_carrier(256, 256), ROI, PATIENT_BYTES)]
        rng = np.random.default_rng(20160712)
        while len(cases) < 501:
            cases.append(random_case(rng))
        for img, roi, message in cases:
            stego, _ = embed(img, roi, message)
            container = serialize(rle_encode(stego))
            decompressed = rle_decode(deserialize(container))
            recovered, restored = extract(decompressed)
            assert recovered == message
            assert compare(img, restored).mse == 0
            assert math.isinf(compare(img, restored).psnr)
            assert np.array_equal(restored, img)


def test_criterion_5_oracle_equivalence():
    with criterion("5 scan/extract equal brute force on 512 binary 3x3 + 1000 random 16x16"):
        for bits in itertools.product((0, 1), repeat=9):
            img = np.asarray(bits, dtype=np.uint8).reshape(3, 3)
            assert scan_candidates(img, Rect(0, 0, 2, 2)) == brute_candidates(
                img, 0, 0, 2, 2
            )
            message, restored = extract(img)
            expected_message, expected_grid = brute_extract(img)
            assert message == expected_message
            assert restored.tolist() == expected_grid

        rng = np.random.default_rng(11)
        for _ in range(1000):
            img = (
                rng.integers(0, 256, size=(16, 16)) * (rng.random((16, 16)) < 0.45)
            ).astype(np.uint8)
            x0, x1 = sorted(int(v) for v in rng.integers(0, 16, size=2))
            y0, y1 = sorted(int(v) for v in rng.integers(0, 16, size=2))
            assert scan_candidates(img, Rect(x0, y0, x1, y1)) == brute_candidates(
                img, x0, y0, x1, y1
            )
            message, restored = extract(img)
            expected_message, expected_grid = brute_extract(img)
            assert message == expected_message
            assert restored.tolist() == expected_grid


def test_criterion_6_rle_codec_soundness():
    with criterion("6 rle identity on 1000 random images, container byte-exact"):
        rng = np.random.default_rng(4242)
        for i in range(1000):
            h = int(rng.integers(1, 65))
            w = int(rng.integers(1, 65))
            high = 256 if i % 2 else 3  # alternate noisy and runny content
            img = rng.integers(0, high, size=(h, w)).astype(np.uint8)
            stream = rle_encode(img)
            assert np.array_equal(rle_decode(stream), img)
            container = serialize(stream)
            assert deserialize(container) == stream
            assert serialize(deserialize(container)) == container
            assert parse_container(container) == (w, h, stream.runs())

        constant = np.full((64, 64), 7, dtype=np.uint8)
        assert np.array_equal(rle_decode(rle_encode(constant)), constant)
        assert rle_encode(constant).runs() == [(7, 64 * 64)]
        # odd width keeps the flattened checkerboard strictly alternating
        checker = (np.indices((64, 63)).sum(axis=0) % 2).astype(np.uint8)
        assert np.array_equal(rle_decode(rle_encode(checker)), checker)
        assert len(rle_encode(checker).values) == checker.size
        assert rle_encode(checker).runs() == brute_rle(checker.ravel())

        golden = serialize(rle_encode(np.zeros((256, 256), dtype=np.uint8)))
        expected = bytes.fromhex("53524c45 01 00010000 00010000 01000000 00 00000100")
        assert golden == expected
        assert len(golden) == 22


def test_criterion_7_timing_sanity(tmp_path, capsys):
    with criterion("7 all phases under 1 s; printed total equals phase sum to 1 ms"):
        result = run_pipeline(synthetic_carrier(256, 256), ROI, PATIENT_BYTES)
        for phase in PHASES:
            assert result.timing.phases[phase] < 1.0, phase

        carrier_path = str(tmp_path / "carrier.pgm")
        save_pgm(carrier_path, synthetic_carrier(256, 256))
        code = main([
            "pipeline", "--in", carrier_path, "--roi", "1,1,60,60",
            "--message", PATIENT_TAG,
        ])
        out = capsys.readouterr().out
        assert code == 0
        printed = {}
        for line in out.splitlines():
            parts = line.split()
            if parts and parts[0] in PHASES + ("total",):
                printed[parts[0]] = float(parts[1])
        assert set(printed) == set(PHASES) | {"total"}
        assert all(printed[p] < 1.0 for p in PHASES)
        assert abs(printed["total"] - sum(printed[p] for p in PHASES)) <= 1e-3

        # soft check only: the reference measurements had decoding slowest
        slowest = max(PHASES, key=lambda p: result.timing.phases[p])
        if slowest == "rle-decode":
            print("REPORT: phase ordering matches (rle-decode slowest)")
        else:
            print(f"REPORT: phase ordering differs (slowest here: {slowest})")


def test_criterion_8_negative_paths_have_distinct_exit_codes(tmp_path, capsys):
    with criterion("8 seven error families map to distinct CLI exit codes"):
        zero = tmp_path / "zero.pgm"
        save_pgm(zero, np.zeros((256, 256), dtype=np.uint8))
        noisy = tmp_path / "noisy.pgm"
        lone = np.zeros((16, 16), dtype=np.uint8)
        lone[8, 8] = 77
        save_pgm(noisy, lone)
        small = tmp_path / "small.pgm"
        save_pgm(small, np.zeros((4, 4), dtype=np.uint8))
        container = serialize(rle_encode(np.zeros((8, 8), dtype=np.uint8)))
        out = tmp_path / "out"

        def craft(name, payload):
            path = tmp_path / name
            path.write_bytes(payload)
            return str(path)

        sum_mismatch = (
            b"SRLE\x01" + (2).to_bytes(4, "little") * 2
            + (1).to_bytes(4, "little") + bytes([5]) + (3).to_bytes(4, "little")
        )
        runs = {
            "CapacityExceeded": [
                "embed", "--in", str(zero), "--out", str(out), "--roi", "1,1,2,2",
                "--message", "does not fit in four pixels",
            ],
            "AmbiguousCarrier": [
                "embed", "--in", str(noisy), "--out", str(out), "--roi", "1,1,14,14",
                "--message", "x",
            ],
            "LengthMismatch": [
                "decompress", "--in", craft("sum.srle", sum_mismatch), "--out", str(out),
            ],
            "BadMagic": [
                "decompress", "--in", craft("magic.srle", b"XRLE" + container[4:]),
                "--out", str(out),
            ],
            "Truncated": [
                "decompress", "--in", craft("cut.srle", container[:-3]), "--out", str(out),
            ],
            "TrailingGarbage": [
                "decompress", "--in", craft("fat.srle", container + b"\x00"),
                "--out", str(out),
            ],
            "DimensionMismatch": ["metrics", str(zero), str(small)],
        }
        codes = {}
        for token, argv in runs.items():
            code = main(argv)
            err = capsys.readouterr().err
            assert code != 0, token
            assert f"error: {token}" in err, token
            codes[token] = code
        assert len(set(codes.values())) == len(codes), codes
