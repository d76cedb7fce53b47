import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import brute_read_p2, brute_read_pgm
from stegrle.errors import (
    MalformedHeader,
    PixelBudgetExceeded,
    RectOutOfBounds,
    StegRleError,
    TruncatedData,
    UnsupportedMaxval,
)
from stegrle.image import (
    MAX_PIXELS,
    Rect,
    as_gray,
    check_rect,
    read_pgm,
    write_file,
    write_pgm,
)

images = arrays(
    np.uint8,
    st.tuples(st.integers(1, 32), st.integers(1, 32)),
    elements=st.integers(0, 255),
)


# --- PGM reading ---

def test_read_minimal_p5():
    img = read_pgm(b"P5\n2 1\n255\n\x00\xff")
    assert img.shape == (1, 2)
    assert img.tolist() == [[0, 255]]


def test_read_minimal_p2():
    img = read_pgm(b"P2\n1 1\n255\n109\n")
    assert img.tolist() == [[109]]


def test_read_p2_and_p5_agree():
    p5 = read_pgm(b"P5\n3 2\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
    for p2_bytes in (b"P2\n3 2\n255\n1 2 3\n4 5 6\n", b"P2\n3 2\n255\n1 2 3 # row 0\n4 5#5\n6"):
        p2 = read_pgm(p2_bytes)
        assert np.array_equal(p5, p2)


def test_read_header_comments():
    img = read_pgm(b"P5\n# made by hand\n2 1\n# another\n255\n\xab\xcd")
    assert img.tolist() == [[0xAB, 0xCD]]


def test_read_truncated_p5():
    with pytest.raises(TruncatedData):
        read_pgm(b"P5\n2 1\n255\n\x00")


def test_read_truncated_p2():
    for data in (b"P2\n2 2\n255\n1 2 3", b"P2\n2 2\n255\n \t\r\n\x0b\x0c "):
        with pytest.raises(TruncatedData):
            read_pgm(data)


def test_read_bad_magic():
    with pytest.raises(MalformedHeader):
        read_pgm(b"P6\n1 1\n255\n\x00")


def test_read_missing_fields():
    # the last two: a comment hides the rest of its line, so no token comes from its tail
    for data in (b"P5\n2 1\n", b"P2 1 1 #255", b"P5 1 1 #255"):
        with pytest.raises(MalformedHeader, match="PGM header ended early"):
            read_pgm(data)


def test_read_non_numeric_dimension():
    for data in (
        b"P5\ntwo 1\n255\n\x00\x00",
        b"P5 1_0 1 2_55\n" + bytes(10),
        b"P5 +2 1 255\n\x00\x00",
    ):
        with pytest.raises(MalformedHeader):
            read_pgm(data)


def test_read_zero_dimension():
    with pytest.raises(MalformedHeader):
        read_pgm(b"P5\n0 4\n255\n")


def test_read_high_maxval_rejected():
    with pytest.raises(UnsupportedMaxval):
        read_pgm(b"P5\n1 1\n65535\n\x00\x00")


@pytest.mark.parametrize("magic", [b"P5", b"P2"])
def test_read_refuses_a_header_over_the_pixel_budget(magic):
    side = 2**14
    assert side * side == MAX_PIXELS
    with pytest.raises(PixelBudgetExceeded, match="16385x16384 image has 268451840 pixels"):
        read_pgm(magic + b" %d %d 255\n7" % (side + 1, side))
    with pytest.raises(TruncatedData):  # the budget itself is allowed: only the raster is short
        read_pgm(magic + b" %d %d 255\n7" % (side, side))


def test_read_p2_over_the_budget_with_junk_after_its_sample():
    # text.split(None, count) cannot take a count this large: it must never be reached
    with pytest.raises(PixelBudgetExceeded):
        read_pgm(b"P2 100000000000000000000 1 255 1 x")


def test_read_p2_value_out_of_range():
    for data in (
        b"P2\n1 1\n255\n300\n",
        b"P5 2 1 15\n\xff\xff",
        b"P2 1 1 255 " + b"9" * 20,
        b"P2 1 1 255 18446744073709551617",  # 2**64 + 1: must not wrap round to 1
    ):
        with pytest.raises(MalformedHeader, match="above maxval"):
            read_pgm(data)


@pytest.mark.parametrize(
    "data, expected",
    [
        (b"P2 1 1 255 7 x", [[7]]),  # bytes after the last sample are not read
        (b"P2 1 1 255 7 " + b"0" * 4301, [[7]]),
        (b"P2 1 1 255 7 999", [[7]]),
        (b"P2 1 1 255 0000000255", [[255]]),
        (b"P2 2 1 255 1 #c\r 9\n2", [[1, 2]]),  # a comment runs past \r to \n
    ],
    ids=[
        "after-last-sample",
        "4301-digits-after-last-sample",
        "above-255-after-last-sample",
        "leading-zeros",
        "comment-past-cr",
    ],
)
def test_read_p2_edge_cases(data, expected):
    assert read_pgm(data).tolist() == expected


@pytest.mark.parametrize(
    "data, token",
    [
        (b"P2 3 1 255 1 + 2", b"+"),
        (b"P2 1 1 255 " + b"0" * 4301, b"0" * 4301),  # more digits than int() converts
        (b"P2 1 1 255 " + b"1" * 4301, b"1" * 4301),
    ],
    ids=["sign", "4301-digits", "4301-ones"],
)
def test_read_p2_names_the_first_bad_token(data, token):
    with pytest.raises(MalformedHeader, match=re.escape(repr(token))):
        read_pgm(data)


p2_samples = st.integers(0, 255).map(lambda n: str(n).encode())
p2_odd_tokens = st.one_of(
    st.integers(0, 999).map(lambda n: str(n).encode()),
    st.sampled_from([b"x", b"+1", b"-0", b"1_0", b"2a", b"\xd9\xa1", b"\x85", b"\x1c"]),
    st.sampled_from([b"0" * 4, b"0" * 20, b"0" * 4301, b"1" * 4301, b"9" * 20]),
    st.tuples(st.sampled_from([1, 2, 636, 637, 638, 700]), st.integers(0, 999)).map(
        lambda t: b"0" * t[0] + str(t[1]).encode()  # zero padding, either side of 640 bytes
    ),
    st.binary(min_size=1, max_size=4).map(lambda b: b"00" + b),  # padding, then anything
    st.binary(min_size=1, max_size=3).map(lambda b: b"#" + b),  # a comment that may run on
    st.sampled_from([b"#", b"#x\n", b"#x\r", b"#\r\n"]),
)
# mostly samples; "" glues two tokens into one
p2_tokens = st.sampled_from([p2_samples] * 3 + [p2_odd_tokens] * 2).flatmap(lambda s: s)
p2_separators = st.sampled_from(
    [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n", b" \n", b""]
)


@settings(max_examples=400)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.one_of(st.just(255), st.integers(1, 255)),
    st.lists(st.tuples(p2_tokens, p2_separators), max_size=20),
    st.binary(max_size=4),
)
def test_read_p2_matches_brute_force(width, height, maxval, pieces, trailing):
    raster = b"\n" + b"".join(token + sep for token, sep in pieces) + trailing
    expected = brute_read_p2(raster, width * height)
    if isinstance(expected, list) and max(expected) > maxval:
        expected = "MalformedHeader"
    try:
        img = read_pgm(b"P2 %d %d %d" % (width, height, maxval) + raster)
    except (MalformedHeader, TruncatedData) as error:
        assert type(error).__name__ == expected
    else:
        assert img.ravel().tolist() == expected


@settings(max_examples=300)
@given(st.binary(max_size=64))
def test_read_rejects_junk_with_declared_errors_only(data):
    try:
        read_pgm(data)
    except (MalformedHeader, TruncatedData, UnsupportedMaxval, PixelBudgetExceeded):
        pass


@settings(max_examples=150)
@given(st.integers(0, 40), st.integers(0, 255))
def test_read_survives_single_byte_corruption(position, value):
    data = bytearray(b"P5\n4 2\n255\n" + bytes(range(8)))
    position = min(position, len(data) - 1)
    data[position] = value
    try:
        img = read_pgm(bytes(data))
        assert img.shape[0] >= 1 and img.shape[1] >= 1
    except (MalformedHeader, TruncatedData, UnsupportedMaxval):
        pass


small_pgm_images = arrays(
    np.uint8,
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
    elements=st.integers(0, 255),
)
header_values = st.one_of(
    st.integers(0, 300).map(b"%d".__mod__),
    st.sampled_from([2**14 + 1, MAX_PIXELS, MAX_PIXELS + 1, 2**32]).map(b"%d".__mod__),
    st.integers(20, 40).map(lambda n: b"9" * n),  # 20+ digits
    st.integers(20, 40).map(lambda n: b"1" + b"0" * n),
    st.sampled_from([b"0" * 30 + b"7", b"1" * 4301]),  # zero padding; too long for int()
)


@st.composite
def valid_pgms(draw):
    """A valid P2 or P5 file of a small image: its header fields, magic first, and raster."""
    img = draw(small_pgm_images)
    maxval = draw(st.sampled_from([255, max(1, int(img.max()))]))
    magic = draw(st.sampled_from([b"P2", b"P5"]))
    if magic == b"P5":
        raster = img.tobytes()
    else:
        seps = st.sampled_from([b" ", b"\n", b"\t", b" # note\n"])
        raster = b"".join(b"%d" % v + draw(seps) for v in img.ravel())
    return [magic, b"%d" % img.shape[1], b"%d" % img.shape[0], b"%d" % maxval], raster


def pgm_header(fields):
    return b" ".join(fields) + b"\n"


@st.composite
def mutated_pgms(draw):
    """A valid PGM after flips, a truncation, a splice, a new header field, or a field and a flip."""
    fields, raster = draw(valid_pgms())
    kind = draw(st.sampled_from(["flips", "truncation", "splice", "field", "field+flip"]))
    if kind.startswith("field"):
        fields[draw(st.integers(1, 3))] = draw(header_values)  # width, height or maxval
    data = bytearray(pgm_header(fields) + raster)
    if kind == "flips":
        for _ in range(draw(st.integers(2, 8))):  # sampled_from spreads them; integers favour 0
            data[draw(st.sampled_from(range(len(data))))] ^= draw(st.integers(1, 255))
    elif kind == "field+flip":  # one flip in the raster, so the new header still reads
        data[draw(st.integers(len(pgm_header(fields)), len(data) - 1))] ^= draw(st.integers(1, 255))
    elif kind == "truncation":
        del data[draw(st.integers(0, len(data) - 1)) :]
    elif kind == "splice":
        other_fields, other_raster = draw(valid_pgms())
        other = pgm_header(other_fields) + other_raster
        cut = draw(st.just(len(data)) | st.integers(0, len(data)))  # often a plain concatenation
        data = data[:cut] + other[draw(st.sampled_from([0, cut]) | st.integers(0, len(other))) :]
    return bytes(data)


@settings(max_examples=400)
@given(mutated_pgms())
def test_mutated_pgms_fail_cleanly_or_match_the_oracle(data):
    expected = brute_read_pgm(data, MAX_PIXELS)
    try:
        img = read_pgm(data)
    except StegRleError as error:
        assert type(error).__name__ == expected
    else:
        assert img.tolist() == expected


# --- PGM writing ---

def test_write_single_black_pixel():
    assert write_pgm(as_gray([[0]])) == b"P5\n1 1\n255\n\x00"


def test_write_row_major_order():
    data = write_pgm(as_gray([[1, 2], [3, 4]]))
    assert data == b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4])


@given(images)
def test_pgm_round_trip(img):
    assert np.array_equal(read_pgm(write_pgm(img)), img)


@given(images)
def test_writer_is_deterministic(img):
    assert write_pgm(img) == write_pgm(img)


def test_write_file_leaves_the_old_file_or_the_whole_new_one(tmp_path):
    path = tmp_path / "out.pgm"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        write_file(path, "not bytes")  # fails after the new file is opened
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.pgm"]
    write_file(path, b"new")
    assert path.read_bytes() == b"new"
    assert os.listdir(tmp_path) == ["out.pgm"]
    opened = tmp_path / "opened"
    opened.write_bytes(b"")
    assert path.stat().st_mode == opened.stat().st_mode  # the umask decides, as for open()


# --- ROI checks ---

def test_rect_inside_image_is_valid():
    img = np.zeros((256, 256), dtype=np.uint8)
    check_rect(img, Rect(10, 10, 200, 220))


def test_rect_full_image_is_valid():
    img = np.zeros((256, 256), dtype=np.uint8)
    check_rect(img, Rect(0, 0, 255, 255))


def test_rect_past_right_edge():
    img = np.zeros((256, 256), dtype=np.uint8)
    with pytest.raises(RectOutOfBounds):
        check_rect(img, Rect(0, 0, 256, 10))


def test_rect_inverted_corners():
    img = np.zeros((8, 8), dtype=np.uint8)
    with pytest.raises(RectOutOfBounds):
        check_rect(img, Rect(5, 0, 2, 7))


def test_rect_negative_origin():
    img = np.zeros((8, 8), dtype=np.uint8)
    with pytest.raises(RectOutOfBounds):
        check_rect(img, Rect(-1, 0, 3, 3))


# --- validation helper ---

def test_as_gray_rejects_out_of_range():
    with pytest.raises(ValueError):
        as_gray([[0, 300]])


def test_as_gray_rejects_empty():
    with pytest.raises(ValueError):
        as_gray(np.zeros((0, 4), dtype=np.uint8))


def test_as_gray_accepts_plain_lists():
    img = as_gray([[5, 6], [7, 8]])
    assert img.dtype == np.uint8
    assert img.shape == (2, 2)
