import contextlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_candidates, brute_extract, brute_greedy_sites, brute_isolated_nonzero
from stegrle import carrier
from stegrle.carrier import synthetic_carrier
from stegrle.errors import (
    AmbiguousCarrier,
    CapacityExceeded,
    NonLatinCharacter,
    NulCharacter,
    PixelBudgetExceeded,
    RectOutOfBounds,
)
from stegrle.image import Rect
from stegrle.metrics import compare
from stegrle.stego import (
    EmbedReport,
    bytes_to_text,
    embed,
    embedding_sites,
    extract,
    scan_candidates,
    text_to_bytes,
    validate_carrier,
)

PATIENT_TAG = "GRI pid:007"
PATIENT_BYTES = bytes([71, 82, 73, 32, 112, 105, 100, 58, 48, 48, 55])


def zeros(h, w):
    return np.zeros((h, w), dtype=np.uint8)


@st.composite
def sparse_carriers(draw):
    """Zero images with a few solid dominoes and border pixels; always a valid carrier."""
    width = draw(st.integers(3, 20))
    height = draw(st.integers(3, 20))
    img = np.zeros((height, width), dtype=np.uint8)
    for _ in range(draw(st.integers(0, 5))):
        x = draw(st.integers(0, width - 2))
        y = draw(st.integers(0, height - 1))
        img[y, x] = draw(st.integers(1, 255))
        img[y, x + 1] = draw(st.integers(1, 255))
    for _ in range(draw(st.integers(0, 3))):  # extract never reads the border
        y = draw(st.integers(0, height - 1))
        edge_row = y in (0, height - 1)
        x = draw(st.integers(0, width - 1) if edge_row else st.sampled_from([0, width - 1]))
        img[y, x] = draw(st.integers(1, 255))
    return img


@st.composite
def carrier_roi_message(draw):
    img = draw(sparse_carriers())
    height, width = img.shape
    x0 = draw(st.integers(0, width - 1))
    x1 = draw(st.integers(x0, width - 1))
    y0 = draw(st.integers(0, height - 1))
    y1 = draw(st.integers(y0, height - 1))
    roi = Rect(x0, y0, x1, y1)
    payload = draw(st.lists(st.integers(1, 255), max_size=64))
    message = bytes(payload[: len(embedding_sites(img, roi))])
    return img, roi, message


# --- text / byte conversion ---

def test_text_to_bytes_patient_tag():
    assert text_to_bytes(PATIENT_TAG) == PATIENT_BYTES


def test_bytes_to_text_patient_tag():
    assert bytes_to_text(PATIENT_BYTES) == PATIENT_TAG


def test_text_round_trip_empty():
    assert text_to_bytes("") == b""
    assert bytes_to_text(b"") == ""


def test_text_single_letter():
    assert text_to_bytes("A") == bytes([65])


def test_repeated_characters_preserved():
    assert bytes_to_text(bytes([48, 48])) == "00"


def test_text_rejects_nul():
    # the first character outside 1..255 decides the error
    for text in ("a\x00b", "a\x00€"):
        with pytest.raises(NulCharacter):
            text_to_bytes(text)


def test_text_rejects_wide_characters():
    for text in ("price: 10€", "€\x00", "\ud800"):
        with pytest.raises(NonLatinCharacter):
            text_to_bytes(text)


@given(st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=255)))
def test_text_round_trip(text):
    assert bytes_to_text(text_to_bytes(text)) == text


# --- candidate scanning ---

def test_scan_all_zero_5x5():
    sites = scan_candidates(zeros(5, 5), Rect(0, 0, 4, 4))
    assert sites == [
        (1, 1), (2, 1), (3, 1),
        (1, 2), (2, 2), (3, 2),
        (1, 3), (2, 3), (3, 3),
    ]


def test_scan_blocked_by_nonzero_neighbour():
    img = zeros(3, 3)
    img[1, 0] = 7  # left neighbour of the centre
    assert scan_candidates(img, Rect(0, 0, 2, 2)) == []


def test_scan_without_zero_pixels():
    img = np.full((4, 4), 9, dtype=np.uint8)
    assert scan_candidates(img, Rect(0, 0, 3, 3)) == []


def test_scan_neighbours_may_leave_roi():
    # site on the roi edge is fine as long as neighbours are zero in the image
    sites = scan_candidates(zeros(5, 5), Rect(1, 1, 1, 1))
    assert sites == [(1, 1)]


def test_scan_matches_brute_force_on_seeded_images():
    rng = np.random.default_rng(7)
    for _ in range(100):
        h, w = rng.integers(1, 12, size=2)
        img = (rng.integers(0, 4, size=(h, w)) == 0).astype(np.uint8) * rng.integers(
            1, 255
        )
        x0, x1 = sorted(rng.integers(0, w, size=2))
        y0, y1 = sorted(rng.integers(0, h, size=2))
        assert scan_candidates(img, Rect(x0, y0, x1, y1)) == brute_candidates(
            img, x0, y0, x1, y1
        )


# --- carrier validation ---

def test_validate_all_zero():
    assert validate_carrier(zeros(4, 4)) == []


def test_validate_flags_isolated_pixel():
    img = zeros(5, 5)
    img[2, 2] = 109
    assert validate_carrier(img) == [(2, 2)]


def test_validate_solid_block_is_clean():
    img = zeros(6, 6)
    img[2:4, 2:5] = 80
    assert validate_carrier(img) == []


def test_validate_ignores_lone_border_pixel():
    img = zeros(4, 4)
    img[0, 0] = 3
    assert validate_carrier(img) == []
    stego, _ = embed(img, Rect(0, 0, 3, 3), b"AB")
    message, restored = extract(stego)
    assert message == b"AB"
    assert np.array_equal(restored, img)


@given(sparse_carriers(), st.data())
def test_validate_matches_brute_force(img, data):
    """validate_carrier lists what extract would misread; embed refuses exactly those carriers."""
    height, width = img.shape
    pixels = st.tuples(st.integers(1, height - 2), st.integers(1, width - 2), st.integers(1, 255))
    for y, x, value in data.draw(st.lists(pixels, max_size=4)):  # interior pixels may be isolated
        img[y, x] = value
    ambiguous = brute_isolated_nonzero(img)
    assert validate_carrier(img) == ambiguous
    roi = Rect(0, 0, width - 1, height - 1)
    if ambiguous:
        message = f"has {len(ambiguous)} isolated nonzero pixel(s), first at {ambiguous[0]};"
        with pytest.raises(AmbiguousCarrier, match=re.escape(message)):
            embed(img, roi, b"A")
    else:
        with contextlib.suppress(CapacityExceeded):  # a clean carrier may have no free site
            embed(img, roi, b"A")


def test_validate_matches_brute_force_on_noise():
    rng = np.random.default_rng(11)
    for _ in range(100):
        h, w = rng.integers(1, 10, size=2)
        img = rng.integers(0, 3, size=(h, w)).astype(np.uint8)
        assert validate_carrier(img) == brute_isolated_nonzero(img)


def test_synthetic_carrier_is_clean_for_every_geometry():
    for width in range(1, 61):
        for height in range(1, 61):
            img = synthetic_carrier(width, height)
            assert validate_carrier(img) == []
            assert extract(img)[0] == b""


def test_synthetic_carrier_checks_the_pixel_budget_before_allocating(monkeypatch):
    monkeypatch.setattr(carrier, "np", None)  # any numpy call would raise AttributeError
    with pytest.raises(PixelBudgetExceeded):
        synthetic_carrier(2**14 + 1, 2**14)
    with pytest.raises(PixelBudgetExceeded):  # an int32 product would wrap to -131071
        synthetic_carrier(np.int32(65535), np.int32(65535))
    with pytest.raises(AttributeError):  # the full budget passes the check
        synthetic_carrier(2**14, 2**14)


# --- embedding ---

def test_embed_single_byte():
    stego, report = embed(zeros(5, 5), Rect(0, 0, 4, 4), bytes([65]))
    assert stego[1, 1] == 65
    assert int((stego != 0).sum()) == 1
    assert validate_carrier(stego) == [(1, 1)]
    assert report.bytes_hidden == 1


def test_embed_empty_message_is_identity():
    img = zeros(4, 6)
    img[1, 1:3] = 50
    stego, report = embed(img, Rect(0, 0, 5, 3), b"")
    assert np.array_equal(stego, img)
    assert report.bytes_hidden == 0


def test_embed_capacity_exceeded_on_3x3():
    with pytest.raises(CapacityExceeded) as err:
        embed(zeros(3, 3), Rect(0, 0, 2, 2), bytes([65, 66]))
    assert err.value.capacity == 1
    assert err.value.needed == 2


def test_embed_reevaluates_against_working_image():
    # writes shut down orthogonal neighbours but not diagonal ones
    stego, _ = embed(zeros(5, 5), Rect(0, 0, 4, 4), bytes([1, 2, 3, 4, 5]))
    assert validate_carrier(stego) == [(1, 1), (3, 1), (2, 2), (1, 3), (3, 3)]
    with pytest.raises(CapacityExceeded):
        embed(zeros(5, 5), Rect(0, 0, 4, 4), bytes(range(1, 7)))


def test_embedding_sites_match_sequential_simulation():
    from oracles import brute_greedy_sites

    rng = np.random.default_rng(17)
    for case in range(600):
        # after 200 cases: 1-row and 1-column images too, one pixel in 1..11 nonzero
        smallest, one_in = (3, 5) if case < 200 else (1, rng.integers(1, 12))
        h, w = rng.integers(smallest, 14, size=2)
        img = (rng.integers(0, one_in, size=(h, w)) == 0).astype(np.uint8) * 9
        x0, x1 = sorted(rng.integers(0, w, size=2))
        y0, y1 = sorted(rng.integers(0, h, size=2))
        assert embedding_sites(img, Rect(x0, y0, x1, y1)) == brute_greedy_sites(
            img, x0, y0, x1, y1
        )


def domino_carrier(rng, height, width):
    """A clean carrier: random horizontal dominoes, and full nonzero rows that leave the
    rows around them without a candidate."""
    img = np.zeros((height, width), dtype=np.uint8)
    for _ in range(rng.integers(0, height * width // 6 + 1)):
        y, x = rng.integers(0, height), rng.integers(0, width - 1)
        img[y, x : x + 2] = rng.integers(1, 256)
    img[rng.random(height) < 0.2] = 9
    return img


@pytest.mark.parametrize("width", [7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128, 150])
def test_claims_match_the_oracle_across_byte_and_word_boundaries(width):
    # ROI widths around 8- and 64-column boundaries, starting at odd and even columns
    rng = np.random.default_rng(width)
    for case in range(24):
        x0 = (1, 2, 5)[case % 3]
        img = domino_carrier(rng, rng.integers(3, 16), x0 + width + rng.integers(1, 4))
        x1, y1 = x0 + width - 1, img.shape[0] - 1
        sites = brute_greedy_sites(img, x0, 0, x1, y1)
        assert embedding_sites(img, Rect(x0, 0, x1, y1)) == sites
        for size in sorted({min(1, len(sites)), max(len(sites) - 1, 0), len(sites)}):
            message = bytes(rng.integers(1, 256, size, dtype=np.uint8).tolist())
            stego, report = embed(img, Rect(x0, 0, x1, y1), message)
            expected = img.copy()
            for (x, y), byte in zip(sites, message):
                expected[y, x] = byte
            assert np.array_equal(stego, expected)
            assert report == EmbedReport(size, len(sites))


def test_embedding_sites_full_zero_block_is_checkerboard():
    sites = embedding_sites(zeros(5, 5), Rect(0, 0, 4, 4))
    assert sites == [(1, 1), (3, 1), (2, 2), (1, 3), (3, 3)]


def test_embed_written_sites_stay_extractable():
    carrier, roi = zeros(7, 7), Rect(0, 0, 6, 6)
    stego, _ = embed(carrier, roi, bytes([9] * 8))
    for x, y in embedding_sites(carrier, roi)[:8]:
        assert stego[y, x] == 9
        assert stego[y - 1, x] == stego[y + 1, x] == 0
        assert stego[y, x - 1] == stego[y, x + 1] == 0


def test_embed_rejects_zero_byte():
    with pytest.raises(NulCharacter):
        embed(zeros(5, 5), Rect(0, 0, 4, 4), bytes([65, 0]))


def test_embed_rejects_ambiguous_carrier():
    img = zeros(5, 5)
    img[2, 2] = 10
    message = "1 isolated nonzero pixel(s), first at (2, 2)"
    with pytest.raises(AmbiguousCarrier, match=re.escape(message)):
        embed(img, Rect(0, 0, 4, 4), bytes([65]))
    img = zeros(5, 6)
    img[3, 1] = img[1, 3] = 10  # (x, y) = (1, 3) and (3, 1); (3, 1) comes first row-major
    message = "2 isolated nonzero pixel(s), first at (3, 1);"
    with pytest.raises(AmbiguousCarrier, match=re.escape(message)):
        embed(img, Rect(0, 0, 5, 4), bytes([65]))


def test_embed_refuses_a_checkerboard_without_listing_its_sites(monkeypatch):
    def listing(*args):
        raise AssertionError("embed built the list of ambiguous sites")

    monkeypatch.setattr("stegrle.stego._mask_sites", listing)
    monkeypatch.setattr("stegrle.stego.validate_carrier", listing)
    side = 4096
    board = np.tile(np.array([[0, 9], [9, 0]], dtype=np.uint8), (side // 2, side // 2))
    ambiguous = (side - 2) ** 2 // 2  # every interior nonzero pixel has four zero neighbours
    message = f"carrier has {ambiguous} isolated nonzero pixel(s), first at (2, 1);"
    with pytest.raises(AmbiguousCarrier, match=re.escape(message)):
        embed(board, Rect(0, 0, side - 1, side - 1), b"A")


def test_embed_rejects_bad_roi():
    with pytest.raises(RectOutOfBounds):
        embed(zeros(5, 5), Rect(0, 0, 5, 4), bytes([65]))


def test_embed_does_not_modify_input():
    img = zeros(5, 5)
    embed(img, Rect(0, 0, 4, 4), bytes([65]))
    assert int(img.sum()) == 0


# --- extraction ---

def test_extract_inverts_single_byte_embed():
    stego, _ = embed(zeros(5, 5), Rect(0, 0, 4, 4), bytes([65]))
    message, restored = extract(stego)
    assert message == bytes([65])
    assert int(restored.sum()) == 0


def test_extract_of_plain_image_is_empty():
    img = zeros(4, 4)
    message, restored = extract(img)
    assert message == b""
    assert np.array_equal(restored, img)


def test_extract_is_total_on_arbitrary_images():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(9, 9)).astype(np.uint8)
    message, restored = extract(img)
    expected_message, expected_grid = brute_extract(img)
    assert message == expected_message
    assert restored.tolist() == expected_grid


def test_extract_matches_brute_force_on_seeded_images():
    rng = np.random.default_rng(23)
    for _ in range(100):
        h, w = rng.integers(1, 12, size=2)
        img = (rng.integers(0, 3, size=(h, w)) * rng.integers(0, 128, size=(h, w))).astype(
            np.uint8
        )
        message, restored = extract(img)
        expected_message, expected_grid = brute_extract(img)
        assert message == expected_message
        assert restored.tolist() == expected_grid


def test_extract_matches_brute_force_on_full_capacity_fills():
    # every site of a clean carrier written: the densest stego image embed can make
    rng = np.random.default_rng(29)
    for _ in range(60):
        img = domino_carrier(rng, rng.integers(3, 40), rng.integers(3, 60))
        roi = Rect(0, 0, img.shape[1] - 1, img.shape[0] - 1)
        size = len(embedding_sites(img, roi))
        message = rng.integers(1, 256, size, dtype=np.uint8).tobytes()
        stego, _ = embed(img, roi, message)
        recovered, restored = extract(stego)
        expected_message, expected_grid = brute_extract(stego)
        assert recovered == expected_message == message
        assert restored.tolist() == expected_grid == img.tolist()


def layouts(img):
    """The same pixels as a Fortran-ordered array and as a strided view into a larger one."""
    big = np.full((2 * img.shape[0], 3 * img.shape[1] + 1), 77, dtype=np.uint8)
    big[::2, 1::3] = img
    return [np.asfortranarray(img), big[::2, 1::3]]


def test_non_contiguous_inputs_give_the_contiguous_results():
    rng = np.random.default_rng(31)
    for _ in range(12):
        img = domino_carrier(rng, rng.integers(3, 20), rng.integers(3, 30))
        roi = Rect(0, 0, img.shape[1] - 1, img.shape[0] - 1)
        sites = embedding_sites(img, roi)
        message = rng.integers(1, 256, max(len(sites) - 1, 0), dtype=np.uint8).tobytes()
        stego, report = embed(img, roi, message)
        recovered, restored = extract(stego)
        for carrier_view, stego_view in zip(layouts(img), layouts(stego)):
            assert not carrier_view.flags.c_contiguous
            before = (carrier_view.copy(), stego_view.copy())
            assert embedding_sites(carrier_view, roi) == sites
            assert validate_carrier(carrier_view) == []
            assert validate_carrier(stego_view) == sites[: len(message)]
            view_stego, view_report = embed(carrier_view, roi, message)
            assert np.array_equal(view_stego, stego) and view_report == report
            view_message, view_restored = extract(stego_view)
            assert view_message == recovered == message
            assert view_restored.dtype == np.uint8
            assert np.array_equal(view_restored, restored) and np.array_equal(restored, img)
            assert np.array_equal(carrier_view, before[0])
            assert np.array_equal(stego_view, before[1])
        if sites:  # a byte on its own in the carrier: the same refusal
            (x, y), ambiguous = sites[0], img.copy()
            ambiguous[y, x] = 5
            with pytest.raises(AmbiguousCarrier) as contiguous:
                embed(ambiguous, roi, message)
            for carrier_view in layouts(ambiguous):
                with pytest.raises(AmbiguousCarrier, match=re.escape(str(contiguous.value))):
                    embed(carrier_view, roi, message)


# --- round-trip properties ---

@settings(max_examples=150, deadline=None)
@given(carrier_roi_message())
def test_round_trip_recovers_message_and_carrier(case):
    img, roi, message = case
    stego, report = embed(img, roi, message)
    recovered, restored = extract(stego)
    assert recovered == message
    assert np.array_equal(restored, img)
    assert report.bytes_hidden == len(message)


@settings(max_examples=150, deadline=None)
@given(carrier_roi_message())
def test_stego_damage_is_exactly_the_message(case):
    img, roi, message = case
    stego, _ = embed(img, roi, message)
    changed = np.argwhere(stego != img)
    assert len(changed) == len(message)
    # every change writes a byte over a zero, never the reverse
    for y, x in changed:
        assert img[y, x] == 0
        assert stego[y, x] != 0
    expected = sum(b * b for b in message) / img.size
    assert compare(img, stego).mse == expected


@settings(max_examples=150, deadline=None)
@given(carrier_roi_message())
def test_extraction_order_matches_embedding_order(case):
    img, roi, message = case
    stego, _ = embed(img, roi, message)
    # carrier is clean, so every extraction match is a written site
    assert brute_isolated_nonzero(stego) == embedding_sites(img, roi)[: len(message)]
