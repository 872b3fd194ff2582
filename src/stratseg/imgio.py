"""Grayscale images, bit-exact PGM I/O and banded histograms.

Pixels are 8-bit, `LEVELS` gray levels, stored row-major with the origin at
the top-left corner. Only single-channel PGM with maxval below `LEVELS` is
handled; the canonical writer emits binary P5 with newline separators so
golden files are byte-exact.

The full-image pixel passes of the segmentation pipeline (binning the tile
grid, stitching the mask) run as two halves of row bands (`_in_halves`):
on an image of at least `_HELPER_PIXELS` pixels, one in the calling thread
and one on a helper thread, as `np.bincount` and the ufuncs release the GIL.
"""

from __future__ import annotations

import math
import os
import re
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgument,
    MalformedHeader,
    TruncatedData,
    UnsupportedMaxval,
    whole_array,
)

__all__ = ["LEVELS", "GrayImage", "Rect", "load_pgm", "save_pgm"]

LEVELS = 256  # gray levels of a pixel, 0 to LEVELS - 1: the length of every histogram
_BAND_PIXELS = 1 << 18  # pixels per bincount call in bin_rows: 64 rows of 4096
# A pass over at least this many pixels runs its upper half on a helper
# thread. Below it, starting the thread and passing the GIL between many short
# numpy calls cost more than the helper saves: on a 2-core x86 host the tile
# grid broke even near 1 Mpx and the stitch near 2-4 Mpx, and at 2 Mpx the
# two passes took 20% less time. A process allowed one CPU never starts the
# helper; os.cpu_count() counts the machine's CPUs, not the ones it may run on.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
_HELPER_PIXELS = 1 << 21 if (_CPUS or 1) > 1 else math.inf


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
        arr = whole_array("pixels", self.pixels)
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidArgument("pixels must be a non-empty 2-D array")
        if arr.dtype != np.uint8 and not 0 <= arr.min() <= arr.max() <= LEVELS - 1:
            raise InvalidArgument(f"intensities must lie in [0, {LEVELS - 1}]")
        arr = arr.astype(np.uint8, order="C")  # a copy, of uint8 pixels too
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
            raise InvalidArgument(f"invalid rect {self!r}")


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
    if maxval >= LEVELS:
        raise UnsupportedMaxval(f"maxval {maxval} > {LEVELS - 1}")
    if maxval < 1:
        raise MalformedHeader(f"invalid maxval {maxval}")

    npix = width * height
    if magic == b"P5":
        raster_start = header[2][1] + 1  # single whitespace byte after maxval
        got = min(npix, max(0, len(data) - raster_start))
        if got < npix:
            raise TruncatedData(f"expected {npix} bytes, got {got}")
        arr = np.frombuffer(data, np.uint8, npix, raster_start).reshape(height, width)
        if maxval < LEVELS - 1 and int(arr.max()) > maxval:
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
    header = f"P5\n{img.width} {img.height}\n{LEVELS - 1}\n".encode("ascii")
    return header + img.pixels.data  # pixels are C-contiguous: one copy


def bin_rows(pixels: np.ndarray, groups: np.ndarray, buf=None) -> np.ndarray:
    """int64 counts of the levels of a 2-D uint8 array, (k, LEVELS): `groups`
    gives each column a group, and row g counts the columns of group g, for
    k = max(groups) + 1 groups. A pixel's bin is its level plus LEVELS times
    its group; this is the one place that knows the layout.

    `np.bincount` casts its input to intp, so the rows are keyed into an intp
    buffer a band at a time: the caller's `buf` of at least one row, whose
    length sets the band height, or one of about `_BAND_PIXELS` pixels made
    here. It stays a few MiB and cache-sized whatever the array's size."""
    height, width = pixels.shape
    key, k = groups * LEVELS, int(groups.max()) + 1
    if buf is None:
        buf = np.empty(min(height, max(1, _BAND_PIXELS // width)) * width, np.intp)
    step, counts = len(buf) // width, None
    for y in range(0, height, step):
        band = pixels[y : y + step]
        keyed = np.add(band, key, out=buf[: band.size].reshape(band.shape))
        binned = np.bincount(keyed.ravel(), minlength=k * LEVELS).astype(np.int64, copy=False)
        counts = binned if counts is None else np.add(counts, binned, out=counts)
    return counts.reshape(k, LEVELS)


def _in_halves(lower, upper, size: int) -> None:
    """Call `lower()` here and `upper()` on a helper thread, and return when
    both are done; for a pass over fewer than `_HELPER_PIXELS` pixels
    (`size`), call both here.

    The two must write disjoint memory. An exception in `upper` is raised
    here once both have stopped (one in `lower` takes precedence), so no
    traceback is printed from the thread and no caller returns half-written
    output. numpy's `errstate` is per thread: a new thread starts from the
    defaults, so `upper` does not see the caller's settings."""
    if size < _HELPER_PIXELS:
        lower()
        upper()
        return
    failed = []

    def run_upper():
        try:
            upper()
        except BaseException as exc:  # raised again in the calling thread
            failed.append(exc)

    helper = threading.Thread(target=run_upper, name="stratseg-half")
    helper.start()
    try:
        lower()
    finally:
        helper.join()
    if failed:
        raise failed.pop()
