import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratseg import GrayImage, load_pgm, save_pgm
from stratseg.errors import (
    InvalidArgument,
    MalformedHeader,
    TruncatedData,
    UnsupportedMaxval,
)
from stratseg.imgio import bin_rows


def canonical_p5(w, h, pixels):
    return f"P5\n{w} {h}\n255\n".encode() + bytes(pixels)


def test_load_p5_minimal():
    img = load_pgm(b"P5 2 2 255 " + bytes([0, 255, 128, 7]))
    assert img.width == 2 and img.height == 2
    assert img.pixels.tolist() == [[0, 255], [128, 7]]


def test_load_p2_single_pixel():
    img = load_pgm(b"P2\n1 1\n255\n0\n")
    assert img.width == 1 and img.height == 1
    assert img.pixels[0, 0] == 0


def test_load_p2_multi():
    img = load_pgm(b"P2\n3 1\n255\n0 128 255")
    assert img.pixels.tolist() == [[0, 128, 255]]


def test_header_comments_skipped():
    data = b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([9, 10])
    img = load_pgm(data)
    assert img.pixels.tolist() == [[9, 10]]


def test_save_canonical_single_pixel():
    assert save_pgm(GrayImage(np.array([[42]], dtype=np.uint8))) == b"P5\n1 1\n255\n*"


def test_save_has_exact_raster_length():
    img = GrayImage(np.array([[0, 255], [128, 7]], dtype=np.uint8))
    out = save_pgm(img)
    assert out == b"P5\n2 2\n255\n" + bytes([0, 255, 128, 7])


def test_roundtrip_image_to_bytes_and_back():
    rng = np.random.default_rng(11)
    for _ in range(50):
        w, h = rng.integers(1, 40, size=2)
        img = GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
        assert load_pgm(save_pgm(img)) == img


def test_roundtrip_canonical_bytes():
    rng = np.random.default_rng(12)
    for _ in range(50):
        w, h = rng.integers(1, 40, size=2)
        raw = canonical_p5(w, h, rng.integers(0, 256, size=w * h, dtype=np.uint8).tobytes())
        assert save_pgm(load_pgm(raw)) == raw


_SPACE = st.text(alphabet=" \t\r\n", min_size=1, max_size=3)
_COMMENT = st.text(alphabet="abc #\t", max_size=6).map(lambda c: "#" + c + "\n")


@st.composite
def pgm_inputs(draw):
    """A valid P5 or P2 file: any whitespace and comments between header
    tokens, leading zeros, maxval below 255, extra bytes after a P5 raster."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    maxval = draw(st.integers(1, 255))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.integers(0, maxval + 1, size=w * h)

    def sep():
        return draw(_SPACE) + "".join(draw(st.lists(_COMMENT, max_size=2)))

    def number(v):
        return "0" * draw(st.integers(0, 2)) + str(v)

    magic = draw(st.sampled_from(["P5", "P2"]))
    head = magic + sep() + number(w) + sep() + number(h) + sep() + number(maxval)
    if magic == "P5":
        tail = draw(st.binary(max_size=4))
        return (head + draw(st.sampled_from(" \t\r\n"))).encode() + bytes(samples.tolist()) + tail
    seps = rng.choice([" ", "\n", "\t", " \r\n", " #c\n"], size=w * h)
    body = "".join(f"{s}{v}" for s, v in zip(seps, samples.tolist()))
    return (head + body + draw(st.sampled_from(["", "\n"]))).encode()


@settings(max_examples=200)
@given(data=pgm_inputs())
def test_save_of_load_is_a_fixed_point(data):
    once = save_pgm(load_pgm(data))
    assert save_pgm(load_pgm(once)) == once
    assert load_pgm(once) == load_pgm(data)


@pytest.mark.parametrize(
    "data,exc",
    [
        (b"P6 1 1 255 xxx", MalformedHeader),
        (b"P5 a b 255 ", MalformedHeader),
        (b"P5 0 1 255 ", MalformedHeader),
        (b"P5 2 2 65535 " + bytes(8), UnsupportedMaxval),
        (b"P5 2 2 255 " + bytes(3), TruncatedData),
        (b"P2 2 1 255 7", TruncatedData),
        (b"", MalformedHeader),
        (b"P2 1 1 100 200", MalformedHeader),  # sample exceeds maxval
        (b"P2\n2 2\n255\n-5 10 20 30\n", MalformedHeader),  # negative sample
        (b"P2 1 1 255 " + b"9" * 30, MalformedHeader),  # beyond int64
        # header fields and samples are ASCII digit runs only
        (b"P5 1_0 1 +255\n" + bytes(10), MalformedHeader),
        (b"P2 2 1 255 +1 0_0", MalformedHeader),
        (b"P5 2 1 +255\n" + bytes(2), MalformedHeader),
        (b"P2 2 1 255 +1 0", MalformedHeader),
        (b"P2 2 1 255 1 0_0", MalformedHeader),
        (b"P5 \xd9\xa3 1 255 " + bytes(3), MalformedHeader),  # an Arabic-Indic digit
        (b"P2 1 1 255 \x0c7", MalformedHeader),  # int() strips a form feed
    ],
)
def test_parse_errors(data, exc):
    with pytest.raises(exc):
        load_pgm(data)


def test_digit_run_past_the_int_conversion_limit_is_malformed():
    # int() refuses more than 4300 digits by default; without that limit
    # the sample is read and exceeds maxval, also MalformedHeader
    with pytest.raises(MalformedHeader):
        load_pgm(b"P2 1 1 255 " + b"2" * 5000)


def test_histogram_constant_region():
    img = GrayImage(np.full((4, 4), 128, dtype=np.uint8))
    hist = bin_rows(img.pixels[0:4, 0:4])
    assert hist[128] == 16 and hist.sum() == 16


def test_histogram_two_pixels():
    img = GrayImage(np.array([[3, 3]], dtype=np.uint8))
    hist = bin_rows(img.pixels[0:1, 0:2])
    assert hist[3] == 2 and hist.sum() == 2


def test_histogram_additivity_over_tiling():
    rng = np.random.default_rng(13)
    img = GrayImage(rng.integers(0, 256, size=(24, 32), dtype=np.uint8))
    full = bin_rows(img.pixels)
    total = np.zeros(256, dtype=np.int64)
    # irregular exact tiling
    for x0, y0, w, h in [(0, 0, 10, 24), (10, 0, 22, 7), (10, 7, 22, 17)]:
        total += bin_rows(img.pixels[y0 : y0 + h, x0 : x0 + w])
    assert np.array_equal(total, full)
    # oracle: per-pixel counting
    oracle = np.bincount(img.pixels.ravel(), minlength=256)
    assert np.array_equal(full, oracle)


@pytest.mark.parametrize("w,h", [(1000, 700), (1, 600_000), (3000, 1)])
def test_histogram_over_many_row_bands_matches_flat_count(w, h):
    # binning runs in bands of about 2**18 pixels; these regions span
    # several bands, end in a partial one, or are one row or column wide
    rng = np.random.default_rng(w + h)
    img = GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
    hist = bin_rows(img.pixels)
    assert hist.dtype == np.int64
    assert np.array_equal(hist, np.bincount(img.pixels.ravel(), minlength=256))
    if h > 1:  # an offset region whose bands start mid-image
        assert np.array_equal(
            bin_rows(img.pixels[1:]), np.bincount(img.pixels[1:].ravel(), minlength=256)
        )


def test_histogram_mass_equals_area():
    rng = np.random.default_rng(14)
    img = GrayImage(rng.integers(0, 256, size=(20, 20), dtype=np.uint8))
    for _ in range(20):
        x0, y0 = rng.integers(0, 15, size=2)
        w, h = rng.integers(1, 6, size=2)
        assert bin_rows(img.pixels[y0 : y0 + h, x0 : x0 + w]).sum() == w * h


def test_grayimage_immutable():
    img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 1


def test_grayimage_rejects_nan():
    with pytest.raises(InvalidArgument):
        GrayImage(np.array([[np.nan, 3.0]]))


def test_grayimage_rejects_fractional_intensity():
    with pytest.raises(InvalidArgument):
        GrayImage(np.array([[1.7, 3.0]]))
    assert GrayImage(np.array([[1.0, 3.0]])).pixels.tolist() == [[1, 3]]


def test_load_p5_from_bytes_uses_the_raster_in_place():
    data = canonical_p5(3, 2, [0, 1, 2, 253, 254, 255])
    img = load_pgm(data)
    assert img.pixels.tolist() == [[0, 1, 2], [253, 254, 255]]
    assert np.shares_memory(img.pixels, np.frombuffer(data, dtype=np.uint8))
    assert img.pixels.flags.c_contiguous
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 9
    with pytest.raises(ValueError):
        img.pixels.setflags(write=True)
    assert save_pgm(img) == data


@pytest.mark.parametrize("wrap", [bytearray, memoryview], ids=["bytearray", "memoryview"])
def test_load_p5_from_mutable_buffer_copies(wrap):
    buf = bytearray(canonical_p5(2, 1, [10, 20]))
    img = load_pgm(wrap(buf))
    buf[-1] = 99
    assert img.pixels.tolist() == [[10, 20]]
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 9


def test_truncated_p5_reports_available_bytes():
    with pytest.raises(TruncatedData, match="expected 4 bytes, got 3"):
        load_pgm(b"P5 2 2 255 " + bytes(3))
    with pytest.raises(TruncatedData, match="expected 4 bytes, got 0"):
        load_pgm(b"P5 2 2 255")
