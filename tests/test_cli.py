import os
import re
from pathlib import Path

import numpy as np
import pytest

from stegrle import carrier
from stegrle.cli import IO_ERROR_EXIT, main
from stegrle.errors import StegRleError
from stegrle.image import Rect, load_pgm, save_pgm, write_pgm
from stegrle.rle import rle_encode, serialize
from stegrle.stego import embedding_sites


@pytest.fixture
def zero_pgm(tmp_path):
    path = tmp_path / "zero.pgm"
    save_pgm(path, np.zeros((256, 256), dtype=np.uint8))
    return path


@pytest.fixture
def carrier_pgm(tmp_path):
    path = tmp_path / "carrier.pgm"
    assert main(["gen-carrier", "--out", str(path)]) == 0
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- gen-carrier ---

def test_gen_carrier_writes_valid_pgm(tmp_path, capsys):
    path = tmp_path / "c.pgm"
    code, out, _ = run(capsys, "gen-carrier", "--out", path, "--width", 64, "--height", 48)
    assert code == 0
    assert "64x48" in out
    img = load_pgm(path)
    assert img.shape == (48, 64)
    assert img.any()


def test_gen_carrier_pixel_budget_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(carrier, "np", None)  # the refusal must come before any numpy call
    code, _, err = run(
        capsys, "gen-carrier", "--out", tmp_path / "c.pgm", "--width", 16385, "--height", 16384
    )
    assert code == 25
    assert "error: PixelBudgetExceeded" in err
    assert list(tmp_path.iterdir()) == []


def test_gen_carrier_bad_blob_value_is_a_value_error(tmp_path, capsys):
    code, _, err = run(capsys, "gen-carrier", "--out", tmp_path / "c.pgm", "--blob-value", 0)
    assert code == 2
    assert err.startswith("error: ValueError: blob_value must be in 1..255")
    assert list(tmp_path.iterdir()) == []


# --- embed / extract ---

def test_embed_extract_round_trip(tmp_path, capsys, carrier_pgm):
    stego = tmp_path / "stego.pgm"
    code, out, _ = run(
        capsys, "embed", "--in", carrier_pgm, "--out", stego,
        "--roi", "1,1,60,60", "--message", "GRI pid:007",
    )
    assert code == 0
    assert "bytes hidden: 11" in out
    assert "capacity:" in out
    assert "sites:" in out

    diff = load_pgm(stego) != load_pgm(carrier_pgm)
    assert int(diff.sum()) == 11

    restored = tmp_path / "restored.pgm"
    code, out, _ = run(
        capsys, "extract", "--in", stego, "--out", restored,
        "--verify", carrier_pgm,
    )
    assert code == 0
    assert "message: GRI pid:007" in out
    assert "verify mse: 0" in out
    assert "verify psnr: Infinity" in out
    assert np.array_equal(load_pgm(restored), load_pgm(carrier_pgm))


def test_embed_prints_the_first_sixteen_sites(tmp_path, capsys, carrier_pgm):
    code, out, _ = run(
        capsys, "embed", "--in", carrier_pgm, "--out", tmp_path / "stego.pgm",
        "--roi", "1,1,60,60", "--message", "x" * 20,
    )
    assert code == 0
    sites = embedding_sites(load_pgm(carrier_pgm), Rect(1, 1, 60, 60))
    shown = " ".join(f"{x},{y}" for x, y in sites[:16])
    assert f"\nsites: {shown} ... (4 more)\n" in out


def test_embed_allow_empty_is_identity(tmp_path, capsys, carrier_pgm):
    stego = tmp_path / "stego.pgm"
    code, out, _ = run(
        capsys, "embed", "--in", carrier_pgm, "--out", stego,
        "--roi", "1,1,60,60", "--message", "", "--allow-empty",
    )
    assert code == 0
    assert "bytes hidden: 0" in out
    assert stego.read_bytes() == carrier_pgm.read_bytes()


def test_embed_empty_message_needs_flag(tmp_path, capsys, carrier_pgm):
    code, _, err = run(
        capsys, "embed", "--in", carrier_pgm, "--out", tmp_path / "s.pgm",
        "--roi", "1,1,60,60", "--message", "",
    )
    assert code == 24
    assert "error: EmptyMessage" in err


def test_embed_message_file(tmp_path, capsys, carrier_pgm):
    message_file = tmp_path / "msg.txt"
    message_file.write_text("hello ward 9", encoding="utf-8")
    stego = tmp_path / "stego.pgm"
    code, out, _ = run(
        capsys, "embed", "--in", carrier_pgm, "--out", stego,
        "--roi", "1,1,60,60", "--message-file", message_file,
    )
    assert code == 0
    code, out, _ = run(capsys, "extract", "--in", stego, "--out", tmp_path / "r.pgm")
    assert "message: hello ward 9" in out


def test_embed_message_file_not_utf8_exit(tmp_path, capsys, carrier_pgm):
    message_file = tmp_path / "msg.txt"
    message_file.write_bytes(b"caf\xe9")  # Latin-1, not UTF-8
    code, _, err = run(
        capsys, "embed", "--in", carrier_pgm, "--out", tmp_path / "s.pgm",
        "--roi", "1,1,60,60", "--message-file", message_file,
    )
    assert code == 14
    assert "error: NonLatinCharacter" in err
    assert "is not UTF-8 text" in err
    assert not (tmp_path / "s.pgm").exists()


def test_embed_capacity_exceeded_exit(tmp_path, capsys, carrier_pgm):
    code, _, err = run(
        capsys, "embed", "--in", carrier_pgm, "--out", tmp_path / "s.pgm",
        "--roi", "1,1,3,3", "--message", "far too long for four pixels",
    )
    assert code == 16
    assert "error: CapacityExceeded" in err


def test_embed_roi_out_of_bounds_exit(tmp_path, capsys, carrier_pgm):
    code, _, err = run(
        capsys, "embed", "--in", carrier_pgm, "--out", tmp_path / "s.pgm",
        "--roi", "0,0,256,10", "--message", "x",
    )
    assert code == 13
    assert "error: RectOutOfBounds" in err


def test_extract_of_plain_zero_image(tmp_path, capsys, zero_pgm):
    code, out, _ = run(capsys, "extract", "--in", zero_pgm, "--out", tmp_path / "r.pgm")
    assert code == 0
    assert "message: \n" in out


# --- compress / decompress ---

def test_compress_zero_image_reports_ratio(tmp_path, capsys, zero_pgm):
    container = tmp_path / "zero.srle"
    code, out, _ = run(capsys, "compress", "--in", zero_pgm, "--out", container)
    assert code == 0
    assert container.stat().st_size == 22
    assert "raw bytes: 65551" in out
    assert "container bytes: 22" in out
    assert "ratio: 2979.59:1" in out


def test_compress_decompress_round_trip(tmp_path, capsys, carrier_pgm):
    container = tmp_path / "c.srle"
    back = tmp_path / "back.pgm"
    assert run(capsys, "compress", "--in", carrier_pgm, "--out", container)[0] == 0
    assert run(capsys, "decompress", "--in", container, "--out", back)[0] == 0
    assert back.read_bytes() == carrier_pgm.read_bytes()


def test_compress_expanding_image_still_succeeds(tmp_path, capsys):
    img = np.indices((32, 32)).sum(axis=0).astype(np.uint8) % 2
    path = tmp_path / "checker.pgm"
    save_pgm(path, img)
    code, out, _ = run(capsys, "compress", "--in", path, "--out", tmp_path / "c.srle")
    assert code == 0
    ratio = float(out.split("ratio: ")[1].split(":")[0])
    assert ratio < 1


def test_decompress_bad_magic_exit(tmp_path, capsys):
    bad = tmp_path / "bad.srle"
    bad.write_bytes(b"XRLE" + bytes(18))
    code, _, err = run(capsys, "decompress", "--in", bad, "--out", tmp_path / "o.pgm")
    assert code == 19
    assert "error: BadMagic" in err


def test_decompress_truncated_exit(tmp_path, capsys, zero_pgm):
    container = serialize(rle_encode(load_pgm(zero_pgm)))
    cut = tmp_path / "cut.srle"
    cut.write_bytes(container[:-2])
    code, _, err = run(capsys, "decompress", "--in", cut, "--out", tmp_path / "o.pgm")
    assert code == 21
    assert "error: Truncated" in err


def test_decompress_trailing_garbage_exit(tmp_path, capsys, zero_pgm):
    container = serialize(rle_encode(load_pgm(zero_pgm)))
    fat = tmp_path / "fat.srle"
    fat.write_bytes(container + b"!")
    code, _, err = run(capsys, "decompress", "--in", fat, "--out", tmp_path / "o.pgm")
    assert code == 22
    assert "error: TrailingGarbage" in err


def test_decompress_unsupported_version_exit(tmp_path, capsys, zero_pgm):
    container = serialize(rle_encode(load_pgm(zero_pgm)))
    versioned = tmp_path / "v2.srle"
    versioned.write_bytes(container[:4] + bytes([9]) + container[5:])
    code, _, err = run(capsys, "decompress", "--in", versioned, "--out", tmp_path / "o.pgm")
    assert code == 20
    assert "error: UnsupportedVersion" in err


def test_decompress_length_mismatch_exit(tmp_path, capsys):
    # header says 2x2 but the single run covers 3 pixels
    body = b"SRLE\x01" + (2).to_bytes(4, "little") * 2 + (1).to_bytes(4, "little")
    body += bytes([5]) + (3).to_bytes(4, "little")
    bad = tmp_path / "sum.srle"
    bad.write_bytes(body)
    code, _, err = run(capsys, "decompress", "--in", bad, "--out", tmp_path / "o.pgm")
    assert code == 18
    assert "error: LengthMismatch" in err


def test_decompress_pixel_budget_exit(tmp_path, capsys):
    # 22 bytes declaring 65535x65535 pixels in one run
    body = b"SRLE\x01" + (65535).to_bytes(4, "little") * 2 + (1).to_bytes(4, "little")
    body += bytes([0]) + (65535 * 65535).to_bytes(4, "little")
    bomb = tmp_path / "bomb.srle"
    bomb.write_bytes(body)
    code, _, err = run(capsys, "decompress", "--in", bomb, "--out", tmp_path / "o.pgm")
    assert code == 25
    assert "error: PixelBudgetExceeded" in err
    assert not (tmp_path / "o.pgm").exists()


def test_compress_pixel_budget_exit(tmp_path, capsys):
    big = tmp_path / "big.pgm"
    big.write_bytes(b"P5 16385 16384 255\n\x00")  # one pixel over the budget, no raster
    code, _, err = run(capsys, "compress", "--in", big, "--out", tmp_path / "o.srle")
    assert code == 25
    assert "error: PixelBudgetExceeded" in err
    assert not (tmp_path / "o.srle").exists()


# --- metrics ---

def test_metrics_identical_files(capsys, zero_pgm):
    code, out, _ = run(capsys, "metrics", zero_pgm, zero_pgm)
    assert code == 0
    assert "mse: 0\n" in out
    assert "psnr: Infinity" in out


def test_metrics_golden_pair(tmp_path, capsys, zero_pgm):
    stego = tmp_path / "stego.pgm"
    assert run(
        capsys, "embed", "--in", zero_pgm, "--out", stego,
        "--roi", "0,0,255,255", "--message", "GRI pid:007",
    )[0] == 0
    code, out, _ = run(capsys, "metrics", zero_pgm, stego)
    assert code == 0
    assert "mse: 0.9565" in out
    assert "psnr: 48.3240" in out


def test_metrics_dimension_mismatch_exit(tmp_path, capsys, zero_pgm):
    small = tmp_path / "small.pgm"
    save_pgm(small, np.zeros((4, 4), dtype=np.uint8))
    code, _, err = run(capsys, "metrics", zero_pgm, small)
    assert code == 23
    assert "error: DimensionMismatch" in err


# --- pipeline ---

def test_pipeline_reports_and_outputs(tmp_path, capsys, carrier_pgm):
    csv_path = tmp_path / "report.csv"
    stego = tmp_path / "stego.pgm"
    restored = tmp_path / "restored.pgm"
    code, out, _ = run(
        capsys, "pipeline", "--in", carrier_pgm, "--roi", "1,1,60,60",
        "--message", "GRI pid:007", "--repeat", 2, "--csv", csv_path,
        "--stego-out", stego, "--container-out", tmp_path / "c.srle",
        "--restored-out", restored,
    )
    assert code == 0
    assert "round-trip: verified lossless" in out
    for phase in ("data-hiding", "rle-encode", "rle-decode", "data-retrieval", "total"):
        assert phase in out
    assert "0.9565" in out
    assert "48.3240" in out
    assert "Infinity" in out
    assert restored.read_bytes() == carrier_pgm.read_bytes()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "section,label,seconds,mse,psnr"
    assert len(lines) == 1 + 5 + 2
    assert csv_path.read_bytes().count(b"\r\n") == len(lines)  # csv's own line ends
    written = {"carrier.pgm", "report.csv", "stego.pgm", "c.srle", "restored.pgm"}
    assert set(os.listdir(tmp_path)) == written  # no temporary file is left behind


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-carrier", "--out", "{out}"],
        ["embed", "--in", "{carrier}", "--out", "{out}", "--roi", "1,1,60,60", "--message", "hi"],
        ["compress", "--in", "{carrier}", "--out", "{out}"],
        ["decompress", "--in", "{container}", "--out", "{out}"],
        ["extract", "--in", "{carrier}", "--out", "{out}"],
        *(
            ["pipeline", "--in", "{carrier}", "--roi", "1,1,9,9", "--message", "hi", flag, "{out}"]
            for flag in ("--csv", "--stego-out", "--container-out", "--restored-out")
        ),
    ],
)
def test_failed_write_leaves_the_old_output_and_no_temporary_file(
    tmp_path, capsys, monkeypatch, carrier_pgm, argv
):
    container = tmp_path / "in.srle"
    container.write_bytes(serialize(rle_encode(load_pgm(carrier_pgm))))
    out = tmp_path / "out"
    out.write_bytes(b"old")
    before = sorted(os.listdir(tmp_path))

    def replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", replace)
    paths = {"out": out, "carrier": carrier_pgm, "container": container}
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == IO_ERROR_EXIT
    assert "No space left on device" in err
    assert out.read_bytes() == b"old"
    assert sorted(os.listdir(tmp_path)) == before


def test_pipeline_capacity_error_names_phase(tmp_path, capsys, carrier_pgm):
    code, _, err = run(
        capsys, "pipeline", "--in", carrier_pgm, "--roi", "1,1,2,2",
        "--message", "this will not fit",
    )
    assert code == 16
    assert "data-hiding" in err


# --- error wiring ---

def test_missing_input_is_io_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "extract", "--in", tmp_path / "nope.pgm", "--out", tmp_path / "o.pgm"
    )
    assert code == 3
    assert "error: IOError" in err


def test_malformed_pgm_exit(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P9\n1 1\n255\n\x00")
    code, _, err = run(capsys, "extract", "--in", bad, "--out", tmp_path / "o.pgm")
    assert code == 10
    assert "error: MalformedHeader" in err


def test_truncated_pgm_exit(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    code, _, err = run(capsys, "extract", "--in", bad, "--out", tmp_path / "o.pgm")
    assert code == 11
    assert "error: TruncatedData" in err


def test_ambiguous_carrier_exit(tmp_path, capsys):
    img = np.zeros((16, 16), dtype=np.uint8)
    img[8, 8] = 77
    noisy = tmp_path / "noisy.pgm"
    save_pgm(noisy, img)
    code, _, err = run(
        capsys, "embed", "--in", noisy, "--out", tmp_path / "s.pgm",
        "--roi", "1,1,14,14", "--message", "x",
    )
    assert code == 17
    assert "error: AmbiguousCarrier" in err


def test_roi_argument_validation(capsys, carrier_pgm, tmp_path):
    # int() would read "1_0" as 10 and the Arabic-Indic digit one as 1
    for roi in ("1,2,3", "1_0,1,5,5", "\u0661,1,5,5"):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "embed", "--in", str(carrier_pgm), "--out", str(tmp_path / "s.pgm"),
                "--roi", roi, "--message", "x",
            ])
        assert exit_info.value.code == 2


def test_negative_roi_corner_reaches_rect_check(capsys, carrier_pgm, tmp_path):
    code, _, err = run(
        capsys, "embed", "--in", carrier_pgm, "--out", tmp_path / "s.pgm",
        "--roi=-1,0,5,5", "--message", "x",
    )
    assert code == 13
    assert "error: RectOutOfBounds" in err


def test_integer_options_take_ascii_digits_only(capsys, tmp_path):
    for option, value in (
        ("--width", "1_0"), ("--width", "\u0661\u0660"), ("--width", "+10"), ("--width", "0"),
        ("--blob-radius", "1_0"), ("--blob-cx", "\u0663\u0662"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["gen-carrier", "--out", str(tmp_path / "c.pgm"), option, value])
        assert exit_info.value.code == 2
    code, _, _ = run(capsys, "gen-carrier", "--out", tmp_path / "c.pgm", "--blob-cx", "-4")
    assert code == 0


# --- documentation ---

def all_errors(cls=StegRleError):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_errors(sub)


def test_readme_exit_code_table_names_every_error():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Exit codes", 1)[1].split("\n#", 1)[0]
    table = sorted((name, int(code)) for code, name in re.findall(r"(\d+)\s*\|\s*(\w+)", section))
    assert table == sorted((error.__name__, error.exit_code) for error in all_errors())
    assert "`2` usage errors" in section and f"`{IO_ERROR_EXIT}` file I/O" in section
    assert not {2, IO_ERROR_EXIT} & {code for _, code in table}
    with pytest.raises(SystemExit) as exit_info:
        main(["compress"])  # a required option is missing
    assert exit_info.value.code == 2
