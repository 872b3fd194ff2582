"""Grayscale images, bit-exact PGM I/O and banded histograms.

Pixels are 8-bit, stored row-major with the origin at the top-left corner.
Only single-channel PGM with maxval <= 255 is handled; the canonical writer
emits binary P5 with newline separators so golden files are byte-exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgument,
    MalformedHeader,
    TruncatedData,
    UnsupportedMaxval,
)

__all__ = ["GrayImage", "Rect", "load_pgm", "save_pgm"]

_BAND_PIXELS = 1 << 18  # pixels per bincount call in bin_rows: 64 rows of 4096


@dataclass(frozen=True)
class GrayImage:
    """Immutable 8-bit grayscale image.

    `pixels` is a (height, width) uint8 array; it is copied on construction
    and marked read-only, so instances are safe to share across threads.
    `load_pgm` and `segment` skip the copy (see `_adopt`), for arrays that no
    one can write.
    """

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidArgument("pixels must be a non-empty 2-D array")
        if arr.dtype != np.uint8:
            if not np.all((arr >= 0) & (arr <= 255)):  # NaN fails too
                raise InvalidArgument("intensities must lie in [0, 255]")
            if not np.all(arr == np.trunc(arr)):
                raise InvalidArgument("intensities must be whole numbers")
            arr = arr.astype(np.uint8)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other):
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )


def _adopt(arr: np.ndarray) -> GrayImage:
    """A GrayImage around `arr` itself, without the constructor's copy.

    `arr` must be a non-empty, C-contiguous, 2-D uint8 array that no other
    code can write: a view of a `bytes` object, or an array the caller made
    and drops. It is marked read-only here.
    """
    assert arr.dtype == np.uint8 and arr.ndim == 2 and arr.size
    assert arr.flags.c_contiguous
    arr.setflags(write=False)
    img = object.__new__(GrayImage)
    object.__setattr__(img, "pixels", arr)
    return img


@dataclass(frozen=True)
class Rect:
    """Axis-aligned pixel rectangle: top-left inclusive, extent in pixels."""

    x0: int
    y0: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1 or self.x0 < 0 or self.y0 < 0:
            raise ValueError(f"invalid rect {self!r}")

    @property
    def area(self) -> int:
        return self.w * self.h


_TOKEN = re.compile(rb"#[^\n]*|([^ \t\r\n#]+)")


def _tokens(data: bytes):
    """Yield the header tokens, split at whitespace and at '#' comments that
    run to the end of their line, and the byte offset just past each, so the
    P5 raster start (one whitespace byte after maxval) can be located."""
    for m in _TOKEN.finditer(data):
        if m.group(1) is not None:
            yield m.group(1), m.end()


def _decimal(tok: bytes, what: str) -> int:
    """A PGM number: a run of ASCII digits. `int()` alone also takes signs,
    underscores and Unicode digits, and refuses runs longer than its limit."""
    if tok.isdigit():
        try:
            return int(tok)
        except ValueError:
            pass
    raise MalformedHeader(f"non-numeric {what} {tok[:20]!r}")


def load_pgm(data: bytes) -> GrayImage:
    """Parse a binary (P5) or ASCII (P2) PGM byte string."""
    gen = _tokens(data)
    try:
        magic, _ = next(gen)
    except StopIteration:
        raise MalformedHeader("empty input") from None
    if magic not in (b"P5", b"P2"):
        raise MalformedHeader(f"bad magic {magic!r}")
    header = []
    for _ in range(3):
        try:
            header.append(next(gen))
        except StopIteration:
            raise MalformedHeader("incomplete header") from None
    width, height, maxval = (_decimal(tok, "header field") for tok, _ in header)
    if width < 1 or height < 1:
        raise MalformedHeader(f"non-positive dimensions {width}x{height}")
    if maxval > 255:
        raise UnsupportedMaxval(f"maxval {maxval} > 255")
    if maxval < 1:
        raise MalformedHeader(f"invalid maxval {maxval}")

    npix = width * height
    if magic == b"P5":
        raster_start = header[2][1] + 1  # single whitespace byte after maxval
        got = min(npix, max(0, len(data) - raster_start))
        if got < npix:
            raise TruncatedData(f"expected {npix} bytes, got {got}")
        arr = np.frombuffer(data, np.uint8, npix, raster_start).reshape(height, width)
        if maxval < 255 and int(arr.max()) > maxval:
            raise MalformedHeader("sample exceeds maxval")
        if type(data) is bytes:  # immutable, so the raster is used in place
            return _adopt(arr)
    else:
        values = [_decimal(tok, "sample") for tok, _ in gen]
        if len(values) < npix:
            raise TruncatedData(f"expected {npix} samples, got {len(values)}")
        values = values[:npix]
        if max(values) > maxval:
            raise MalformedHeader("sample exceeds maxval")
        arr = np.array(values, dtype=np.uint8).reshape(height, width)
    return GrayImage(arr)


def save_pgm(img: GrayImage) -> bytes:
    """Serialize to canonical binary P5: 'P5\\n<w> <h>\\n255\\n' + raster."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.data  # pixels are C-contiguous: one copy


def bin_rows(pixels: np.ndarray, key=None, nbins: int = 256) -> np.ndarray:
    """int64 counts, `nbins` long, of a 2-D uint8 array's values, plus `key`
    if given (an intp per-column bin offset that broadcasts along a row).

    `np.bincount` first casts its input to intp, eight bytes per pixel, so the
    rows are binned in bands of about `_BAND_PIXELS` pixels: the cast stays a
    few MiB and cache-sized whatever the array's size."""
    step = max(1, _BAND_PIXELS // pixels.shape[1])
    counts = None
    for y in range(0, pixels.shape[0], step):
        band = pixels[y : y + step]
        if key is not None:
            band = band + key
        binned = np.bincount(band.ravel(), minlength=nbins)
        if counts is None:
            counts = binned.astype(np.int64, copy=False)
        else:
            counts += binned
    return counts
