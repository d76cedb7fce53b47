import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import brute_rle, brute_rle_expand, pack_container, parse_container
from stegrle.errors import (
    BadMagic,
    LengthMismatch,
    PixelBudgetExceeded,
    StegRleError,
    TrailingGarbage,
    Truncated,
    UnsupportedVersion,
)
from stegrle.image import MAX_PIXELS
from stegrle.rle import RunLengthStream, deserialize, rle_decode, rle_encode, serialize

SAMPLE_VECTOR = [109, 109, 99, 99, 99, 99, 99, 97, 97, 97]

images = arrays(
    np.uint8,
    st.tuples(st.integers(1, 24), st.integers(1, 24)),
    elements=st.integers(0, 3),
)


def stream_of(width, height, runs):
    values, lengths = zip(*runs) if runs else ((), ())
    return RunLengthStream(
        width=width,
        height=height,
        values=np.asarray(values, dtype=np.uint8),
        lengths=np.asarray(lengths, dtype=np.int64),
    )


# --- encoding ---

def test_encode_sample_vector():
    stream = rle_encode(np.asarray([SAMPLE_VECTOR], dtype=np.uint8))
    assert stream.values.tolist() == [109, 99, 97]
    assert stream.lengths.tolist() == [2, 5, 3]
    assert (stream.width, stream.height) == (10, 1)


def test_encode_constant_image():
    stream = rle_encode(np.zeros((256, 256), dtype=np.uint8))
    assert stream.runs() == [(0, 65536)]


def test_encode_alternating_worst_case():
    stream = rle_encode(np.asarray([[1, 0, 1, 0]], dtype=np.uint8))
    assert stream.runs() == [(1, 1), (0, 1), (1, 1), (0, 1)]


def test_encode_crosses_row_boundaries():
    img = np.asarray([[7, 7], [7, 7]], dtype=np.uint8)
    assert rle_encode(img).runs() == [(7, 4)]


@given(images)
def test_encode_is_canonical(img):
    stream = rle_encode(img)
    values = stream.values.tolist()
    assert all(a != b for a, b in zip(values, values[1:]))
    assert len(values) <= img.size
    assert int(stream.lengths.sum()) == img.size
    assert all(n >= 1 for n in stream.lengths.tolist())


# --- decoding ---

def test_decode_sample_vector():
    stream = stream_of(10, 1, [(109, 2), (99, 5), (97, 3)])
    assert rle_decode(stream).tolist() == [SAMPLE_VECTOR]


def test_decode_constant_run():
    img = rle_decode(stream_of(256, 256, [(0, 65536)]))
    assert img.shape == (256, 256)
    assert not img.any()


def test_decode_length_mismatch():
    # a short sum, a negative or zero-length run or a zero or non-integer side is refused when
    # the stream is built, as deserialize refuses it; so are unequal vectors, which serialize
    # would broadcast into a container of [[5, 5, 6, 6]], and lengths the u32 field would wrap
    # to 1, or whose int64 sum would wrap round to width * height
    for width, height, values, lengths in (
        (2, 2, [5], [3]),
        (2, 2, [5, 6], [5, -1]),
        (2, 2, [5, 6], [4, 0]),
        (0, 4, [], []),
        (4, 0, [], []),
        (2.0, 1, [5], [2]),
        # a uint8 product would wrap 16 * 16 to 0, the sum of no runs
        (np.uint8(16), np.uint8(16), np.array([], np.uint8), np.array([], np.int64)),
        (4, 1, [5, 6], [2]),
        (2, 1, [5, 6], [2]),
        (1, 1, [5], [2**32 + 1]),
        (1, 1, [5, 6, 7], [2**63 - 1, 2**63 - 1, 3]),
        # non-integer lengths used to be truncated or parsed, and huge ones raised OverflowError
        (2, 1, [5], [2.7]),
        (2, 1, [5], ["2"]),
        (2, 1, [5], [2**64]),
    ):
        with pytest.raises(LengthMismatch):
            RunLengthStream(width, height, values, lengths)
    # checked before the int64 cast, which would read it as -1
    with pytest.raises(LengthMismatch, match="run of length 18446744073709551615 is longer"):
        RunLengthStream(2, 1, [5], [np.uint64(2**64 - 1)])


@pytest.mark.parametrize(
    "value, error",
    [(300, "must lie in 0..255"), (-1, "must lie in 0..255"), (1.5, "must be integers")],
)
def test_values_outside_a_byte_are_refused_not_wrapped(value, error):
    # a container's value field is one byte; 300 used to come back as 44 and -1 as 255
    with pytest.raises(ValueError, match=f"pixel values {error}"):
        RunLengthStream(2, 1, values=np.array([value]), lengths=np.array([2]))


def test_numpy_dimensions_are_multiplied_as_python_ints():
    # an int16 product would wrap 200 * 200 to -25536 and refuse a valid stream
    side = np.int16(200)
    stream = RunLengthStream(side, side, values=[7], lengths=[200 * 200])
    assert np.array_equal(rle_decode(stream), np.full((200, 200), 7, dtype=np.uint8))
    # a str width is named as one, not printed as a valid-looking 2
    with pytest.raises(LengthMismatch, match="invalid dimensions '2'x1"):
        RunLengthStream("2", 1, [5], [2])


def test_empty_stream_is_refused():
    # no image has 0 pixels, so a stream with no runs is refused before its values are looked at
    with pytest.raises(LengthMismatch, match="run lengths sum to 0, image needs 1 pixels"):
        RunLengthStream(1, 1, values=[], lengths=[])


@pytest.mark.parametrize(
    "change, error",
    [
        # each change once reached serialize: value byte 44 and an rle_decode of [[300, 300]],
        # a run written as 2, and a 3x1 container that deserialize refuses
        (lambda s: setattr(s, "values", np.array([300])), dataclasses.FrozenInstanceError),
        (lambda s: s.lengths.__setitem__(0, 2**32 + 2), ValueError),
        (lambda s: setattr(s, "width", 3), dataclasses.FrozenInstanceError),
    ],
    ids=["values", "lengths-item", "width"],
)
def test_stream_cannot_change_after_it_is_checked(change, error):
    values, lengths = np.array([5], dtype=np.uint8), np.array([2], dtype=np.int64)
    stream = RunLengthStream(2, 1, values, lengths)
    with pytest.raises(error):
        change(stream)
    assert serialize(stream) == pack_container(2, 1, [(5, 2)])
    assert rle_decode(stream).tolist() == [[5, 5]]
    with pytest.raises(TypeError):
        hash(stream)
    values[0] = 6  # the stream keeps the caller's arrays, which stay the caller's to write
    assert stream.runs() == [(6, 2)]


def test_a_stream_equals_only_a_stream():
    stream = stream_of(2, 1, [(5, 2)])
    assert stream.__eq__(5) is NotImplemented
    assert stream != 5 and stream != [(5, 2)]
    assert stream == stream_of(2, 1, [(5, 2)])


def test_decode_tolerates_non_canonical_runs():
    assert rle_decode(stream_of(4, 1, [(5, 2), (5, 2)])).tolist() == [[5, 5, 5, 5]]


def test_decode_does_not_copy_the_run_lengths():
    # np.repeat copies a read-only repeats array: 8 MB of int64 lengths for these 999,001 runs
    img = (np.indices((1000, 1000)).sum(axis=0) % 2).astype(np.uint8)
    stream = rle_encode(img)
    for built in (stream, deserialize(serialize(stream))):
        tracemalloc.start()
        try:
            decoded = rle_decode(built)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(decoded, img)
        assert peak < built.lengths.nbytes / 2
        assert not built.lengths.flags.writeable
    # a stream of the caller's read-only arrays still decodes
    values = np.frombuffer(b"\x05", np.uint8)
    lengths = np.frombuffer(np.int64(2).tobytes(), np.int64)
    assert rle_decode(RunLengthStream(2, 1, values, lengths)).tolist() == [[5, 5]]


@st.composite
def hand_built_runs(draw):
    """(width, height, runs) for a valid stream: any cut of the pixels, equal neighbours allowed."""
    width, height = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    pixels = width * height
    edges = sorted(set(draw(st.lists(st.integers(0, pixels), max_size=40))) | {0, pixels})
    values = st.integers(0, 1) | st.integers(0, 255)  # 0..1 makes adjacent equal values common
    return width, height, [(draw(values), end - start) for start, end in zip(edges, edges[1:])]


@given(hand_built_runs())
def test_hand_built_streams_serialize_and_decode(args):
    width, height, runs = args
    stream = RunLengthStream(width, height, [v for v, _ in runs], [n for _, n in runs])
    assert (stream.values.dtype, stream.lengths.dtype) == (np.uint8, np.int64)
    assert deserialize(serialize(stream)) == stream
    assert parse_container(serialize(stream)) == (width, height, stream.runs())
    pixels = rle_decode(stream)
    assert pixels.shape == (height, width)
    assert pixels.ravel().tolist() == brute_rle_expand(runs)


@given(images)
def test_round_trip(img):
    assert np.array_equal(rle_decode(rle_encode(img)), img)


def test_round_trip_exhaustive_binary_3x3():
    for bits in itertools.product((0, 1), repeat=9):
        img = np.asarray(bits, dtype=np.uint8).reshape(3, 3)
        stream = rle_encode(img)
        assert stream.runs() == brute_rle(img.ravel())
        assert rle_decode(stream).ravel().tolist() == brute_rle_expand(stream.runs())
        assert np.array_equal(rle_decode(stream), img)


@given(images)
def test_encode_matches_brute_force(img):
    assert rle_encode(img).runs() == brute_rle(img.ravel())


# --- container: serialize ---

def test_serialize_constant_zero_256x256():
    data = serialize(rle_encode(np.zeros((256, 256), dtype=np.uint8)))
    assert data == bytes.fromhex("53524c45 01 00010000 00010000 01000000 00 00000100")
    assert len(data) == 22


def test_serialize_sample_vector_size():
    data = serialize(rle_encode(np.asarray([SAMPLE_VECTOR], dtype=np.uint8)))
    assert len(data) == 17 + 3 * 5


def test_serialize_checked_by_independent_parser():
    rng = np.random.default_rng(5)
    for _ in range(50):
        h, w = rng.integers(1, 20, size=2)
        img = rng.integers(0, 3, size=(h, w)).astype(np.uint8)
        stream = rle_encode(img)
        width, height, runs = parse_container(serialize(stream))
        assert (width, height) == (w, h)
        assert runs == stream.runs()


@given(images)
def test_serialize_is_deterministic(img):
    stream = rle_encode(img)
    assert serialize(stream) == serialize(stream)


# --- container: deserialize ---

@given(images)
def test_container_round_trip(img):
    stream = rle_encode(img)
    assert deserialize(serialize(stream)) == stream


def test_deserialize_bad_magic():
    data = serialize(rle_encode(np.zeros((2, 2), dtype=np.uint8)))
    with pytest.raises(BadMagic):
        deserialize(b"XRLE" + data[4:])


def test_deserialize_unsupported_version():
    data = serialize(rle_encode(np.zeros((2, 2), dtype=np.uint8)))
    with pytest.raises(UnsupportedVersion):
        deserialize(data[:4] + bytes([2]) + data[5:])


def test_deserialize_truncated_header():
    with pytest.raises(Truncated):
        deserialize(b"SRLE\x01\x00")


def test_deserialize_truncated_payload():
    data = serialize(rle_encode(np.zeros((2, 2), dtype=np.uint8)))
    with pytest.raises(Truncated):
        deserialize(data[:-1])


def test_deserialize_trailing_garbage():
    data = serialize(rle_encode(np.zeros((2, 2), dtype=np.uint8)))
    with pytest.raises(TrailingGarbage):
        deserialize(data + b"\x00")


def test_deserialize_sum_mismatch():
    data = pack_container(2, 2, [(5, 3)])
    with pytest.raises(LengthMismatch):
        deserialize(data)


def test_deserialize_zero_length_run():
    data = pack_container(1, 1, [(5, 0), (9, 1)])
    with pytest.raises(LengthMismatch):
        deserialize(data)


def test_deserialize_zero_dimension():
    data = pack_container(0, 4, [])
    with pytest.raises(LengthMismatch):
        deserialize(data)


# 65535x65535 pixels in one run: 22 bytes that would decode to about 4 GiB
PIXEL_BOMB = pack_container(65535, 65535, [(0, 65535 * 65535)])


def test_deserialize_refuses_a_pixel_bomb():
    assert len(PIXEL_BOMB) == 22
    with pytest.raises(PixelBudgetExceeded):
        deserialize(PIXEL_BOMB)


def test_decode_refuses_a_pixel_bomb():
    with pytest.raises(PixelBudgetExceeded):
        stream_of(65535, 65535, [(0, 65535 * 65535)])


def test_deserialize_accepts_the_full_pixel_budget():
    side = 2**14
    assert side * side == MAX_PIXELS
    stream = deserialize(serialize(stream_of(side, side, [(7, side * side)])))
    assert stream.runs() == [(7, MAX_PIXELS)]


def test_deserialize_empty_input():
    with pytest.raises(Truncated):
        deserialize(b"")


@settings(max_examples=300)
@given(st.binary(max_size=64))
def test_deserialize_rejects_junk_with_declared_errors_only(data):
    try:
        deserialize(data)
    except (BadMagic, UnsupportedVersion, Truncated, TrailingGarbage, LengthMismatch):
        pass


@settings(max_examples=150)
@given(st.integers(0, 21), st.integers(0, 255))
@example(position=8, value=1)  # 2**24 + 256 wide: over the budget, and its one run too short
def test_deserialize_survives_single_byte_corruption(position, value):
    data = bytearray(serialize(rle_encode(np.zeros((256, 256), dtype=np.uint8))))
    data[position] = value
    width, height = (int.from_bytes(data[offset : offset + 4], "little") for offset in (5, 9))
    if width >= 1 and height >= 1 and width * height > MAX_PIXELS:
        with pytest.raises(PixelBudgetExceeded):
            deserialize(bytes(data))
        return
    try:
        stream = deserialize(bytes(data))
        assert int(stream.lengths.sum()) == stream.width * stream.height
    except (BadMagic, UnsupportedVersion, Truncated, TrailingGarbage, LengthMismatch):
        pass


small_images = arrays(
    np.uint8,
    st.tuples(st.integers(1, 16), st.integers(1, 16)),
    elements=st.integers(0, 3),
)


@st.composite
def mutated_containers(draw):
    """A valid container after one mutation: flips, a truncation, a splice or a new field."""
    data = bytearray(serialize(rle_encode(draw(small_images))))
    kind = draw(st.sampled_from(["flips", "truncation", "splice", "field"]))
    if kind == "flips":
        for _ in range(draw(st.integers(2, 8))):  # sampled_from spreads them; integers favour 0
            data[draw(st.sampled_from(range(len(data))))] ^= draw(st.integers(1, 255))
    elif kind == "truncation":
        del data[draw(st.integers(0, len(data) - 1)) :]
    elif kind == "splice":
        other = serialize(rle_encode(draw(small_images)))
        cut = draw(st.just(len(data)) | st.integers(0, len(data)))  # often a plain concatenation
        data = data[:cut] + other[draw(st.sampled_from([0, cut]) | st.integers(0, len(other))) :]
    else:
        offset = draw(st.sampled_from([5, 9, 13]))  # width, height, count
        value = draw(st.integers(0, 300) | st.integers(0, 2**32 - 1))
        data[offset : offset + 4] = value.to_bytes(4, "little")
    return bytes(data)


@settings(max_examples=300)
@given(mutated_containers())
def test_mutated_containers_fail_cleanly_or_match_the_oracle(data):
    try:
        stream = deserialize(data)
    except StegRleError:
        return
    width, height, runs = parse_container(data)
    assert (stream.width, stream.height, stream.runs()) == (width, height, runs)
    pixels = rle_decode(stream)
    assert pixels.shape == (height, width)
    assert pixels.ravel().tolist() == brute_rle_expand(runs)


# --- compression behaviour ---

def test_mostly_constant_image_compresses_well():
    from stegrle.carrier import synthetic_carrier

    img = synthetic_carrier(512, 256)
    assert int((img == 0).sum()) >= 0.9 * img.size
    container = serialize(rle_encode(img))
    assert len(container) < 0.25 * img.size


def test_worst_case_image_expands_but_round_trips():
    img = np.indices((16, 16)).sum(axis=0).astype(np.uint8) % 2
    container = serialize(rle_encode(img))
    assert len(container) > img.size
    assert np.array_equal(rle_decode(deserialize(container)), img)
