import os
import re
import timeit
import tracemalloc
from functools import partial
from itertools import cycle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import PGM_WHITESPACE, brute_read_p2, brute_read_pgm
from stegrle import image
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
    # a valid last three digits after a nonzero digit, and zero padding to 320 and 321 digits
    st.sampled_from(
        [b"1000", b"01255", b"1" + b"0" * 316 + b"255", b"0" * 317 + b"255", b"0" * 318 + b"255"]
    ),
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


def check_p2_against_brute_force(width, height, maxval, pieces, trailing):
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


p2_rasters = (
    st.integers(1, 4),
    st.integers(1, 4),
    st.one_of(st.just(255), st.integers(1, 255)),
    st.lists(st.tuples(p2_tokens, p2_separators), max_size=20),
    st.binary(max_size=4),
)


@settings(max_examples=400)
@given(*p2_rasters)
def test_read_p2_matches_brute_force(width, height, maxval, pieces, trailing):
    check_p2_against_brute_force(width, height, maxval, pieces, trailing)


@settings(max_examples=400)
@given(*p2_rasters)
def test_read_p2_matches_brute_force_in_blocks_of_8(width, height, maxval, pieces, trailing):
    # the rasters above fit in one block of the real size; here most span several
    with mock.patch.object(image, "_BLOCK", 8):
        check_p2_against_brute_force(width, height, maxval, pieces, trailing)


@settings(max_examples=400)
@given(*p2_rasters)
def test_read_p2_matches_brute_force_in_blocks_of_7(width, height, maxval, pieces, trailing):
    # an odd size moves each block's nominal edge across samples and separators
    with mock.patch.object(image, "_BLOCK", 7):
        check_p2_against_brute_force(width, height, maxval, pieces, trailing)


def read_p2_counting_tokens(data):
    """read_pgm(data) and how many samples went token by token through _header_int."""
    names = []
    header_int = image._header_int

    def counted(token, name):
        names.append(name)
        return header_int(token, name)

    with mock.patch.object(image, "_header_int", counted):
        img = read_pgm(data)
    return img, names.count("pixel")


def p2_with_sample_ending_at(last, token):
    """A P2 of 9s and token whose raster (from the header's end) has token's last byte at last."""
    start = last - len(token) + 1  # at least 3, so the lead starts and ends with whitespace
    lead = b"\n" + b" " * ((start - 1) % 2) + b"9 " * ((start - 1) // 2)
    raster = lead + token + b"\n3"
    assert raster.index(token, start) == start
    return b"P2 %d 1 255" % len(raster.split()) + raster, raster


@pytest.mark.parametrize("edge", range(-4, 4))
@pytest.mark.parametrize("token", [b"7", b"42", b"255"])
def test_read_p2_reads_a_sample_cut_by_a_block_edge(token, edge):
    data, raster = p2_with_sample_ending_at(image._BLOCK + edge, token)
    img, tokens_read = read_p2_counting_tokens(data)
    assert img.ravel().tolist() == brute_read_p2(raster, img.size)
    assert img[0, -2] == int(token)
    assert tokens_read == 0


def test_read_p2_takes_all_six_whitespace_bytes_in_any_block():
    assert len(PGM_WHITESPACE) == 6
    values = np.random.default_rng(5).integers(0, 256, 40_000).tolist()
    seps = cycle(bytes([byte]) * run for run in (1, 2, 3, 5) for byte in PGM_WHITESPACE)
    raster = b"".join(next(seps) + b"%d" % v for v in values) + next(seps)
    # 40,000 samples span three real blocks; 7 puts each byte at every offset of some block
    for block, count in ((image._BLOCK, 40_000), (8, 2_000), (7, 2_000)):
        data = b"P2 %d 1 255" % count + raster
        with mock.patch.object(image, "_BLOCK", block):
            img, tokens_read = read_p2_counting_tokens(data)
        assert img.ravel().tolist() == values[:count] == brute_read_p2(raster, count)
        assert tokens_read == 0


def check_a_long_sample_is_read_in_numpy(token, last):
    data, raster = p2_with_sample_ending_at(last, token)
    expected = brute_read_p2(raster, len(raster.split()))
    if max(expected) > 255:
        with pytest.raises(MalformedHeader, match="above maxval 255"):
            read_pgm(data)
        return
    img, tokens_read = read_p2_counting_tokens(data)
    assert img.ravel().tolist() == expected
    assert tokens_read == 0


@pytest.mark.parametrize("token", [b"0007", b"00255", b"1234"])
def test_read_p2_sends_a_long_sample_in_a_later_block_token_by_token(token):
    check_a_long_sample_is_read_in_numpy(token, 3 * image._BLOCK + 10)


@pytest.mark.parametrize("edge", range(-4, 5))
@pytest.mark.parametrize("token", [b"0007", b"00255", b"1234"])
def test_read_p2_sends_a_long_sample_at_a_block_edge_token_by_token(token, edge):
    # a block runs on past its edge to the end of the sample there, never splitting 0007
    check_a_long_sample_is_read_in_numpy(token, image._BLOCK + edge)


@pytest.mark.parametrize("edge", range(-2, 3))
@pytest.mark.parametrize("zeros", [317, 318])
def test_read_p2_runs_a_block_on_through_a_320_digit_sample(zeros, edge):
    # edge 0 starts the sample at the block's nominal end; 321 digits must be refused whole
    token = b"0" * zeros + b"255"
    data, raster = p2_with_sample_ending_at(image._BLOCK + len(token) - 1 + edge, token)
    if len(token) > 320:
        with pytest.raises(MalformedHeader, match=re.escape(repr(token))):
            read_pgm(data)
        return
    img, tokens_read = read_p2_counting_tokens(data)
    assert img.ravel().tolist() == brute_read_p2(raster, img.size)
    assert tokens_read == 0


@pytest.mark.parametrize("edge", range(-2, 3))
def test_read_p2_refuses_junk_glued_to_its_last_sample_at_a_block_edge(edge):
    # the x is the byte after the last sample read, on either side of the block's nominal end
    _, raster = p2_with_sample_ending_at(image._BLOCK + edge, b"7x")
    data = b"P2 %d 1 255" % (len(raster.split()) - 1) + raster
    with pytest.raises(MalformedHeader, match=re.escape("pixel is not a number: b'7x'")):
        read_pgm(data)


def test_read_p2_caps_how_far_a_block_runs_on():
    # one 2 MB digit run: a block that ran on to the run's end would hold all of it
    data = b"P2 1 1 255 " + b"1" * 2_000_000
    tracemalloc.start()
    try:
        with pytest.raises(MalformedHeader, match="pixel is not a number"):
            read_pgm(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(data)


@pytest.mark.parametrize("token", [b"256", b"300", b"999"])
@pytest.mark.parametrize("last", [100, image._BLOCK, 2 * image._BLOCK + 1])
def test_read_p2_refuses_a_three_digit_sample_above_255(token, last):
    data, _ = p2_with_sample_ending_at(last, token)
    with pytest.raises(MalformedHeader, match="above maxval 255"):
        read_pgm(data)


@pytest.mark.parametrize(
    "data",
    [b"P2 1 1 255 7 x", b"P2 1 1 255 7 " + b"0" * 4301, b"P2 2 1 255 7\t8 " + b"\xff" * 70_000],
    ids=["junk", "4301-digits", "a-block-of-junk"],
)
def test_read_p2_does_not_read_past_its_last_sample(data):
    img, tokens_read = read_p2_counting_tokens(data)
    assert img.ravel().tolist() == [7, 8][: img.size]
    assert tokens_read == 0


def test_read_p2_allocates_for_its_text_not_its_header():
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedData):
            read_pgm(b"P2 16384 16384 255\n7 8")  # MAX_PIXELS declared, two samples sent
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def noise_p2(lead):
    """A 1024x1024 noise image and its P2 file, with lead before the first sample."""
    img = np.random.default_rng(3).integers(0, 256, (1024, 1024), dtype=np.uint8)
    rows = (b" ".join(b"%d" % v for v in row) for row in img.tolist())
    return img, b"P2 1024 1024 255\n" + lead + b"\n".join(rows)


def noise_p2_peak_per_pixel(lead):
    """The tracemalloc peak, per pixel, of reading noise_p2(lead)."""
    img, data = noise_p2(lead)
    read_pgm(data)  # numpy's one-time set-up is not the reader's
    tracemalloc.start()
    try:
        decoded = read_pgm(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(decoded, img)
    return peak / img.size


def test_read_p2_peak_memory_per_pixel():
    # 2 B of uint16 samples, 1 B of image, the blocks' arrays
    assert noise_p2_peak_per_pixel(b"") <= 7


def test_read_p2_zero_padded_peak_memory_per_pixel():
    # a zero-padded sample is read in the same numpy blocks as the plain ones
    assert noise_p2_peak_per_pixel(b"000") <= 3.5


def test_read_p2_zero_padded_takes_as_long_as_plain():
    # one zero-padded sample must not send the raster token by token from its first byte
    plain, padded = (
        min(timeit.repeat(partial(read_pgm, noise_p2(lead)[1]), number=1, repeat=3))
        for lead in (b"", b"000")
    )
    assert padded < 2 * plain


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


def test_rect_past_bottom_edge():
    img = np.zeros((256, 128), dtype=np.uint8)
    with pytest.raises(RectOutOfBounds, match="y1=256 outside image of height 256"):
        check_rect(img, Rect(0, 0, 10, 256))


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


def test_as_gray_rejects_a_color_array():
    with pytest.raises(ValueError, match=re.escape("must be 2-D, got shape (2, 2, 3)")):
        as_gray(np.zeros((2, 2, 3), dtype=np.uint8))


def test_as_gray_accepts_plain_lists():
    img = as_gray([[5, 6], [7, 8]])
    assert img.dtype == np.uint8
    assert img.shape == (2, 2)
