import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pack_container
from stegrle.carrier import synthetic_carrier
from stegrle.cli import IO_ERROR_EXIT, main
from stegrle.errors import LengthMismatch, MalformedHeader, PixelBudgetExceeded, StegRleError
from stegrle.image import Rect, load_pgm, read_pgm, save_pgm, write_pgm
from stegrle.rle import RunLengthStream, deserialize, rle_decode, rle_encode, serialize
from stegrle.stego import embed, embedding_sites, extract

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def zero_pgm(tmp_path):
    path = tmp_path / "zero.pgm"
    save_pgm(path, np.zeros((256, 256), dtype=np.uint8))
    return path


@pytest.fixture
def carrier_pgm(tmp_path):
    path = tmp_path / "carrier.pgm"
    save_pgm(path, synthetic_carrier())
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_extract_of_plain_zero_image(tmp_path, capsys, zero_pgm):
    code, out, _ = run(capsys, "extract", "--in", zero_pgm, "--out", tmp_path / "r.pgm")
    assert code == 0
    assert "message: \n" in out


def test_output_the_terminal_cannot_encode_prints_as_escapes(tmp_path, capsys, carrier_pgm):
    stego = tmp_path / "s.pgm"
    assert run(
        capsys, "embed", "--in", carrier_pgm, "--out", stego,
        "--roi", "1,1,60,60", "--message", "café",
    )[0] == 0
    container = tmp_path / "s.srle"
    container.write_bytes(serialize(rle_encode(load_pgm(stego))))
    decoded = tmp_path / "café.pgm"
    env = {**os.environ, "PYTHONIOENCODING": "ascii", "PYTHONPATH": str(SRC)}
    for argv, printed, written in (
        (["extract", "--in", stego, "--out", tmp_path / "r.pgm"], "message: caf\\xe9", "r.pgm"),
        (["decompress", "--in", container, "--out", decoded], "caf\\xe9.pgm", "café.pgm"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "stegrle.cli", *map(str, argv)],
            env=env, capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.endswith(printed + "\n")
        assert (tmp_path / written).exists()


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


# --- pipeline ---

def test_pipeline_reports_and_outputs(tmp_path, capsys, carrier_pgm):
    csv_path = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "pipeline", "--in", carrier_pgm, "--roi", "1,1,60,60",
        "--message", "GRI pid:007", "--csv", csv_path,
    )
    assert code == 0
    assert "round-trip: verified lossless" in out
    for phase in ("data-hiding", "rle-encode", "rle-decode", "data-retrieval", "total"):
        assert phase in out
    assert "0.9565" in out
    assert "48.3240" in out
    assert "Infinity" in out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "section,label,seconds,mse,psnr"
    assert len(lines) == 1 + 5 + 2
    assert csv_path.read_bytes().count(b"\r\n") == len(lines)  # csv's own line ends
    written = {"carrier.pgm", "report.csv"}
    assert set(os.listdir(tmp_path)) == written  # no temporary file is left behind


PAPER_REPORT = """\
bytes hidden: 11
round-trip: verified lossless

phase              seconds
data-hiding         X.XXXX
rle-encode          X.XXXX
rle-decode          X.XXXX
data-retrieval      X.XXXX
total               X.XXXX

comparison                   mse      psnr
carrier vs stego          0.9565   48.3240
carrier vs restored            0  Infinity
"""

PAPER_CSV = (
    "section,label,seconds,mse,psnr\r\n"
    "timing,data-hiding,X.XXXXXX,,\r\n"
    "timing,rle-encode,X.XXXXXX,,\r\n"
    "timing,rle-decode,X.XXXXXX,,\r\n"
    "timing,data-retrieval,X.XXXXXX,,\r\n"
    "timing,total,X.XXXXXX,,\r\n"
    "quality,carrier vs stego,,0.956482,48.324036\r\n"
    "quality,carrier vs restored,,0.000000,Infinity\r\n"
)


def test_pipeline_report_layout_is_pinned(tmp_path, capsys, carrier_pgm):
    # the paper case; only the seconds cells of the timing rows are masked
    csv_path = tmp_path / "report.csv"
    code, out, err = run(
        capsys, "pipeline", "--in", carrier_pgm, "--roi", "1,1,60,60",
        "--message", "GRI pid:007", "--csv", csv_path,
    )
    assert (code, err) == (0, "")
    assert re.sub(r"(?m)^(\S+ +)\d\.\d{4}$", r"\1X.XXXX", out) == (
        PAPER_REPORT + f"\ncsv written: {csv_path}\n"
    )
    csv_text = csv_path.read_bytes().decode("ascii")
    assert re.sub(r"(?m)^(timing,[^,]+,)\d\.\d{6}", r"\1X.XXXXXX", csv_text) == PAPER_CSV


@pytest.mark.parametrize(
    "argv",
    [
        ["embed", "--in", "{carrier}", "--out", "{out}", "--roi", "1,1,60,60", "--message", "hi"],
        ["compress", "--in", "{carrier}", "--out", "{out}"],
        ["decompress", "--in", "{container}", "--out", "{out}"],
        ["extract", "--in", "{carrier}", "--out", "{out}"],
        ["pipeline", "--in", "{carrier}", "--roi", "1,1,9,9", "--message", "hi", "--csv", "{out}"],
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

ZERO_IMAGE = np.zeros((256, 256), dtype=np.uint8)
ZERO_CONTAINER = serialize(rle_encode(ZERO_IMAGE))
SMALL_PGM = write_pgm(np.zeros((4, 4), dtype=np.uint8))
LONE_PIXEL = np.zeros((16, 16), dtype=np.uint8)
LONE_PIXEL[8, 8] = 77  # an isolated nonzero pixel, which extract would read as a byte
EMBED = ("embed", "--in", "{carrier}", "--out", "{out}")


def refusal(name, code, token, fragment, *argv, **files):
    """A table row: argv with {placeholders}, the input files it names, and the refusal."""
    return pytest.param(argv, files, code, token, fragment, id=name)


REFUSALS = [
    refusal(
        "embed-empty-message", 24, "EmptyMessage", "message is empty",
        *EMBED, "--roi", "1,1,60,60", "--message", "",
    ),
    refusal(
        "embed-message-file-not-utf8", 14, "NonLatinCharacter", "is not UTF-8 text",
        *EMBED, "--roi", "1,1,60,60", "--message-file", "{msg}",
        msg=b"caf\xe9",  # Latin-1, not UTF-8
    ),
    refusal(
        "embed-nul-character", 15, "NulCharacter", "NUL cannot be hidden",
        *EMBED, "--roi", "1,1,60,60", "--message", "a\x00b",
    ),
    refusal(
        "embed-capacity-exceeded", 16, "CapacityExceeded", "message needs 28 sites",
        *EMBED, "--roi", "1,1,3,3", "--message", "far too long for four pixels",
    ),
    refusal(
        "embed-roi-out-of-bounds", 13, "RectOutOfBounds", "x1=256 outside image of width 256",
        *EMBED, "--roi", "0,0,256,10", "--message", "x",
    ),
    refusal(
        "embed-negative-roi-corner", 13, "RectOutOfBounds", "need 0 <= x0 <= x1",
        *EMBED, "--roi=-1,0,5,5", "--message", "x",
    ),
    refusal(
        "embed-ambiguous-carrier", 17, "AmbiguousCarrier", "first at (8, 8)",
        "embed", "--in", "{noisy}", "--out", "{out}", "--roi", "1,1,14,14", "--message", "x",
        noisy=write_pgm(LONE_PIXEL),
    ),
    refusal(
        "decompress-bad-magic", 19, "BadMagic", "expected b'SRLE'",
        "decompress", "--in", "{bad}", "--out", "{out}",
        bad=b"XRLE" + bytes(18),
    ),
    refusal(
        "decompress-truncated", 21, "Truncated", "container needs",
        "decompress", "--in", "{cut}", "--out", "{out}",
        cut=ZERO_CONTAINER[:-2],
    ),
    refusal(
        "decompress-trailing-garbage", 22, "TrailingGarbage", "1 byte(s) after last run",
        "decompress", "--in", "{fat}", "--out", "{out}",
        fat=ZERO_CONTAINER + b"!",
    ),
    refusal(
        "decompress-unsupported-version", 20, "UnsupportedVersion", "version 9 not supported",
        "decompress", "--in", "{versioned}", "--out", "{out}",
        versioned=ZERO_CONTAINER[:4] + bytes([9]) + ZERO_CONTAINER[5:],
    ),
    refusal(
        "decompress-length-mismatch", 18, "LengthMismatch", "sum to 3, image needs 4 pixels",
        "decompress", "--in", "{short}", "--out", "{out}",
        short=pack_container(2, 2, [(5, 3)]),  # the single run covers 3 of 4 pixels
    ),
    refusal(
        "decompress-pixel-budget", 25, "PixelBudgetExceeded", "65535x65535 image",
        "decompress", "--in", "{bomb}", "--out", "{out}",
        bomb=pack_container(65535, 65535, [(0, 65535 * 65535)]),  # 22 bytes
    ),
    refusal(
        "compress-pixel-budget", 25, "PixelBudgetExceeded", "16385x16384 image",
        "compress", "--in", "{big}", "--out", "{out}",
        big=b"P5 16385 16384 255\n\x00",  # one pixel over the budget, no raster
    ),
    refusal(
        "extract-missing-input", IO_ERROR_EXIT, "IOError", "No such file or directory",
        "extract", "--in", "{nope}", "--out", "{out}",
    ),
    refusal(
        "extract-malformed-pgm", 10, "MalformedHeader", "not a PGM file",
        "extract", "--in", "{bad}", "--out", "{out}",
        bad=b"P9\n1 1\n255\n\x00",
    ),
    refusal(
        "extract-truncated-pgm", 11, "TruncatedData", "expected 16 pixel bytes, found 2",
        "extract", "--in", "{bad}", "--out", "{out}",
        bad=b"P5\n4 4\n255\n\x00\x00",
    ),
    refusal(
        "extract-zero-maxval", 10, "MalformedHeader", "invalid maxval 0",
        "extract", "--in", "{bad}", "--out", "{out}",
        bad=b"P5 1 1 0\n\x00",
    ),
    refusal(
        "extract-p5-without-delimiter", 10, "MalformedHeader",
        "missing delimiter before binary raster",
        "extract", "--in", "{bad}", "--out", "{out}",
        bad=b"P5 1 1 255",  # the file ends where the raster's delimiter should be
    ),
    refusal(
        "extract-unsupported-maxval", 12, "UnsupportedMaxval", "maxval 65535 exceeds 255",
        "extract", "--in", "{wide}", "--out", "{out}",
        wide=b"P5 1 1 65535\n\x00\x00",
    ),
    refusal(
        "extract-nul-in-path", 2, "ValueError", "embedded null byte",
        "extract", "--in", "a\x00b.pgm", "--out", "{out}",
    ),
    refusal(
        "extract-verify-not-a-pgm", 10, "MalformedHeader", "not a PGM file",
        "extract", "--in", "{carrier}", "--out", "{out}", "--verify", "{bad}",
        bad=b"P9\n1 1\n255\n\x00",
    ),
    refusal(
        "extract-verify-other-size", 23, "DimensionMismatch", "image shapes differ",
        "extract", "--in", "{carrier}", "--out", "{out}", "--verify", "{small}",
        small=SMALL_PGM,
    ),
    refusal(
        "metrics-dimension-mismatch", 23, "DimensionMismatch", "image shapes differ",
        "metrics", "{zero}", "{small}",
        zero=write_pgm(ZERO_IMAGE), small=SMALL_PGM,
    ),
]


@pytest.mark.parametrize("argv, files, code, token, fragment", REFUSALS)
def test_refusal_prints_one_error_line_and_leaves_no_file(
    tmp_path, capsys, carrier_pgm, argv, files, code, token, fragment
):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    before = sorted(os.listdir(tmp_path))
    paths = {name: tmp_path / name for name in (*files, "out", "nope")}
    status, out, err = run(capsys, *(arg.format(carrier=carrier_pgm, **paths) for arg in argv))
    assert (status, out) == (code, "")
    assert err.startswith(f"error: {token}: ") and err.count("\n") == 1 and err.endswith("\n")
    assert fragment in err
    assert sorted(os.listdir(tmp_path)) == before  # no output, no temporary file


def test_roi_argument_validation(capsys, carrier_pgm, tmp_path):
    # int() would read "1_0" as 10 and the Arabic-Indic digit one as 1
    for roi in ("1,2,3", "1_0,1,5,5", "\u0661,1,5,5"):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "embed", "--in", str(carrier_pgm), "--out", str(tmp_path / "s.pgm"),
                "--roi", roi, "--message", "x",
            ])
        assert exit_info.value.code == 2


def test_integer_options_take_ascii_digits_only(tmp_path, carrier_pgm):
    for part in ("1_0", "\u0661\u0660", "+10"):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "embed", "--in", str(carrier_pgm), "--out", str(tmp_path / "s.pgm"),
                "--roi", f"1,1,{part},60", "--message", "x",
            ])
        assert exit_info.value.code == 2
    assert sorted(os.listdir(tmp_path)) == ["carrier.pgm"]


# --- one outcome under every int() digit limit ---

@pytest.fixture(params=[0, 640, "default"])
def int_digit_limit(request):
    """Set int()'s digit limit (0: none) for one test, then restore the one before it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int() digit limit")
    before = sys.get_int_max_str_digits()
    limit = request.param
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits if limit == "default" else limit)
    yield
    sys.set_int_max_str_digits(before)


WIDE_PGM = b"P5 %s %s 255\n\x00" % (b"9" * 2200, b"9" * 2200)  # a 4.4 KB header


@pytest.mark.parametrize(
    "data, expected",
    [
        (WIDE_PGM, MalformedHeader),
        (b"P5 %s %s 255\n\x00" % (b"9" * 320, b"9" * 320), PixelBudgetExceeded),
        (b"P5 %s 1 255\n\x00" % (b"0" * 320 + b"1"), MalformedHeader),  # 1, in 321 digits
        (b"P2 1 1 255 " + b"0" * 317 + b"255", [[255]]),
        (b"P2 1 1 255 " + b"0" * 318 + b"255", MalformedHeader),
    ],
    ids=[
        "2200-digit-sides",
        "320-digit-sides",
        "321-digit-width",
        "320-digit-sample",
        "321-digit-sample",
    ],
)
def test_read_pgm_gives_one_outcome_under_every_digit_limit(int_digit_limit, data, expected):
    if isinstance(expected, list):
        assert read_pgm(data).tolist() == expected
    else:
        with pytest.raises(expected):
            read_pgm(data)


def test_read_pgm_refuses_a_2_mb_digit_run_quickly_under_every_digit_limit(int_digit_limit):
    start = time.perf_counter()
    with pytest.raises(MalformedHeader, match="pixel is not a number"):
        read_pgm(b"P2 1 1 255 " + b"1" * 2_000_000)
    assert time.perf_counter() - start < 1  # int() with no digit limit takes tens of seconds


def test_compress_names_a_long_number_under_every_digit_limit(int_digit_limit, tmp_path, capsys):
    wide = tmp_path / "wide.pgm"
    wide.write_bytes(WIDE_PGM)
    status, out, err = run(capsys, "compress", "--in", wide, "--out", tmp_path / "c.srle")
    assert (status, out) == (10, "")
    assert err.startswith("error: MalformedHeader: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["wide.pgm"]


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda: synthetic_carrier(10**5000, 1), PixelBudgetExceeded),
        (lambda: RunLengthStream(10**5000, 1, [0], [1]), PixelBudgetExceeded),
        (lambda: RunLengthStream(-(10**5000), 1, [0], [1]), LengthMismatch),
    ],
    ids=["carrier", "stream", "negative-stream"],
)
def test_a_5001_digit_dimension_is_refused_by_name_under_every_digit_limit(
    int_digit_limit, make, expected
):
    # the refusal prints the dimension by its bit length: str() of it fails at 4,300 digits
    with pytest.raises(expected, match="<16610-bit int>x1"):
        make()


@pytest.mark.parametrize("digits, code", [(320, 13), (321, 2)])  # RectOutOfBounds, usage error
def test_roi_of_over_320_digits_is_a_usage_error_under_every_digit_limit(
    int_digit_limit, capsys, carrier_pgm, tmp_path, digits, code
):
    argv = ["embed", "--in", carrier_pgm, "--out", tmp_path / "s.pgm", "--message", "x"]
    try:
        status = run(capsys, *argv, "--roi", "1,1,5," + "9" * digits)[0]
    except SystemExit as exc:
        status = exc.code
    assert status == code


# --- documentation ---

def all_errors(cls=StegRleError):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_errors(sub)


def help_text(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        main([*argv, "--help"])
    return out.getvalue()


def test_readme_command_line_section_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n### ", 1)[0]
    commands = re.search(r"\{([\w,-]+)\}", help_text())[1].split(",")
    assert set(re.findall(r"stegrle ([\w-]+)", section)) == set(commands)
    listed = {option for c in commands for option in re.findall(r"--[\w-]+", help_text(c))}
    assert set(re.findall(r"--[\w-]+", section)) == listed - {"--help"}


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


# --- the whole contract, as one property ---

CONTRACT_CARRIER = synthetic_carrier(12, 10)
CONTRACT_STEGO = embed(CONTRACT_CARRIER, Rect(1, 1, 10, 8), b"hi")[0]
CARRIER_INPUTS = [
    write_pgm(CONTRACT_CARRIER),
    b"P2 12 10 255\n" + b" ".join(b"%d" % v for v in CONTRACT_CARRIER.ravel()),
]
PGM_INPUTS = [*CARRIER_INPUTS, write_pgm(CONTRACT_STEGO)]
SRLE_INPUTS = [serialize(rle_encode(CONTRACT_CARRIER)), serialize(rle_encode(CONTRACT_STEGO))]
EXIT_CODES = {error.__name__: error.exit_code for error in all_errors()}
EXIT_CODES.update(IOError=IO_ERROR_EXIT, ValueError=2)
# fragments a ValueError message may hold; any other one, such as a raw numpy
# shape or dtype error, would pass for a usage error and fails the property
VALUE_ERRORS_ALLOWED: list[str] = []


@st.composite
def cli_inputs(draw, kind=PGM_INPUTS):
    """Mostly a file of the kind the command reads, else any; half the time mutated by byte
    flips, a truncation, a splice or, in a PGM, header numbers of hundreds of digits."""
    data = draw(st.sampled_from(kind if draw(st.integers(0, 3)) else PGM_INPUTS + SRLE_INPUTS))
    if draw(st.booleans()):
        return data
    header = re.match(rb"P[25]\s+(\d+)\s+(\d+)\s+(\d+)", data)
    mutation = draw(st.sampled_from(["flips", "truncation", "splice"] + ["numbers"] * bool(header)))
    if mutation == "numbers":  # width, height and maybe maxval of 300 to 5,000 digits
        # around the bound of 320 digits, and int()'s default limit for one number or two
        size = draw(st.sampled_from([320, 321, 2150, 2151, 4300, 4301]) | st.integers(300, 5000))
        padded = draw(st.booleans())  # zero-padded, so a size up to 320 leaves the file valid
        for field in (3, 2, 1) if draw(st.booleans()) else (2, 1):  # the last first: spans hold
            number = header[field]
            digits = b"0" * (size - len(number)) + number if padded else b"9" * size
            data = data[: header.start(field)] + digits + data[header.end(field) :]
    elif mutation == "flips":
        data = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.sampled_from(range(len(data))))] ^= draw(st.integers(1, 255))
    elif mutation == "truncation":
        data = data[: draw(st.integers(0, len(data) - 1))]
    else:
        other = draw(st.sampled_from(PGM_INPUTS + SRLE_INPUTS))
        data = data[: draw(st.integers(0, len(data)))] + other[draw(st.integers(0, len(other))) :]
    return bytes(data)


def corner_pairs(last):
    """Two ROI corners: in order inside 0..last, or anywhere from -1 to last + 1."""
    inside = st.tuples(st.integers(0, last), st.integers(0, last)).map(sorted)
    return inside | st.tuples(st.integers(-1, last + 1), st.integers(-1, last + 1))


rois = st.tuples(corner_pairs(11), corner_pairs(9)).map(
    lambda xy: "--roi=%d,%d,%d,%d" % (xy[0][0], xy[1][0], xy[0][1], xy[1][1])
)
# short and valid, or empty, with a NUL, outside Latin-1, or too long for the 12x10 inputs
messages = st.text("aZ \xe9", min_size=1, max_size=4) | st.sampled_from(
    ["", "a\x00b", "\u20ac", "x" * 100]
)


@st.composite
def message_options(draw):
    """The message as --message=TEXT, or as a file whose bytes may not be UTF-8; and its files."""
    text = draw(messages)
    if draw(st.booleans()):
        return ["--message=" + text], {}, text
    tail = draw(st.sampled_from([b"", b"", b"\xe9"]))
    return ["--message-file", "{msg}"], {"msg": text.encode() + tail}, text


@st.composite
def cli_commands(draw):
    """argv with {placeholders}, the input files it names, and its message text, if any."""
    command = draw(
        st.sampled_from(["embed", "compress", "decompress", "extract", "metrics", "pipeline"])
    )
    kind = {"embed": CARRIER_INPUTS, "pipeline": CARRIER_INPUTS, "decompress": SRLE_INPUTS}
    files = {"a": draw(cli_inputs(kind.get(command, PGM_INPUTS)))}
    text = None
    if command in ("embed", "pipeline"):
        options, message_files, text = draw(message_options())
        files.update(message_files)
        out = [["--out", "{out}"]] if command == "embed" else [[], ["--csv", "{out}"]]
        argv = [command, "--in", "{a}", draw(rois), *options, *draw(st.sampled_from(out))]
    elif command == "metrics":
        files["b"] = draw(cli_inputs())
        argv = ["metrics", "{a}", "{b}"]
    else:
        argv = [command, "--in", "{a}", "--out", "{out}"]
        if command == "extract" and draw(st.booleans()):
            files["b"] = draw(cli_inputs())
            argv += ["--verify", "{b}"]
    return argv, files, text


def read_back(command, files, text, output):
    """Check the file a successful command wrote against the library's own reading of it."""
    if command == "embed":
        assert extract(read_pgm(output))[0] == text.encode("latin-1")
    elif command == "compress":
        assert np.array_equal(rle_decode(deserialize(output)), read_pgm(files["a"]))
    elif command == "decompress":
        assert np.array_equal(read_pgm(output), rle_decode(deserialize(files["a"])))
    elif command == "extract":
        assert np.array_equal(read_pgm(output), extract(read_pgm(files["a"]))[1])
    else:  # the pipeline CSV: a header, five timing rows and two quality rows
        assert output.decode("ascii").count("\r\n") == 1 + 5 + 2


def listing(directory):
    return {name: (Path(directory) / name).read_bytes() for name in os.listdir(directory)}


@settings(max_examples=300, deadline=None)
@given(cli_commands())
def test_every_command_succeeds_with_readable_output_or_fails_with_one_line(case):
    argv, files, text = case
    with tempfile.TemporaryDirectory() as directory:
        paths = {name: os.path.join(directory, name) for name in (*files, "out")}
        for name, data in files.items():
            Path(paths[name]).write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(**paths) for arg in argv])
        after = listing(directory)
    if code == 0:
        assert err.getvalue() == ""
        if "{out}" in argv:
            read_back(argv[0], files, text, after.pop("out"))
    else:
        assert out.getvalue() == ""
        error = re.fullmatch(r"error: (\w+): [^\n]*\n", err.getvalue())
        assert error and EXIT_CODES.get(error[1]) == code, err.getvalue()
        if error[1] == "ValueError":
            assert any(fragment in err.getvalue() for fragment in VALUE_ERRORS_ALLOWED)
    assert after == files  # inputs are never changed, and a failed run writes nothing
