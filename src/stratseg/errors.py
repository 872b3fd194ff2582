"""Exception hierarchy shared across the package, and the checks of the
numbers a caller passes in, one (`real_number`, `whole_number`) or an array
of them (`real_array`, `whole_array`), raising the error class it names.

Every error the library raises derives from StratsegError; the class name
doubles as the machine-parsable category printed by the CLI.
"""

import numbers

import numpy as np


class StratsegError(Exception):
    """Base class for all stratseg errors."""


class InvalidArgument(StratsegError, ValueError):
    """A parameter (policy, weights, simplex, kernel, d, pixels, a histogram) is out of range."""


# --- image I/O ---

class MalformedHeader(StratsegError):
    """PGM header is syntactically invalid."""


class TruncatedData(StratsegError):
    """PGM raster holds fewer samples than width * height."""


class UnsupportedMaxval(StratsegError):
    """PGM maxval is `imgio.LEVELS` or more."""


# --- thresholding ---

class EmptyHistogram(StratsegError):
    """Histogram has zero total count."""


class ReportTreeMismatch(StratsegError):
    """Threshold report entries do not match the tree's leaves."""


# --- discriminant analysis ---

class DimensionMismatch(StratsegError):
    """Vector or matrix dimensions disagree."""


class DegenerateKernel(StratsegError):
    """Kernel matrix is numerically zero."""


class InvalidDataset(StratsegError):
    """Dataset violates a structural precondition (e.g. fewer than 2 classes)."""


class CsvParse(StratsegError):
    """CSV input could not be parsed."""


# --- CLI / files ---

class InvalidSpec(StratsegError):
    """Phantom spec file is invalid."""


class InvalidModel(StratsegError):
    """Model JSON is malformed, lacks a field or has inconsistent shapes."""


class NonBinaryInput(StratsegError):
    """Mask contains values other than 0 and 255."""


class IoError(StratsegError):
    """File could not be read or written."""


def whole_number(name: str, value, error=InvalidArgument) -> int:
    """`value` as an int when it is a whole number (an int, or a float with no
    fractional part: 8.0 gives 8); anything else, bools included, raises
    `error`."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise error(f"{name} must be a whole number, got {value!r}")


def real_number(name: str, value, error=InvalidArgument):
    """`value`, unchanged, when it is a real number that float64 can hold (an
    int or a float, numpy's included; inf and NaN too, for the caller to
    check); anything else, bools and ints beyond the float64 range included,
    raises `error`."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:  # the message leaves out the value: it can run to any length
        raise error(f"{name} must be a number that float64 can hold") from None
    return value


def real_array(name: str, value, error=InvalidArgument) -> np.ndarray:
    """`value` as an array of bools and real numbers (numpy's too) in its own
    dtype, ints beyond int64 as float64; strings, bytes, None, ints beyond
    float64 and rows of unequal length raise `error`. inf and NaN pass."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind == "O" and all(isinstance(v, (numbers.Real, np.bool_)) for v in arr.flat):
            arr = arr.astype(np.float64)
    except (ValueError, OverflowError):
        raise error(f"{name} must be rows of equal length, of numbers float64 can hold") from None
    if arr.dtype.kind not in "biuf":
        raise error(f"{name} must hold bools, ints or floats, not {arr.dtype}")
    return arr


def whole_array(name: str, value, error=InvalidArgument) -> np.ndarray:
    """`real_array(name, value, error)` whose entries are whole numbers inside
    int64 (2.0 is; NaN and 2**63 are not), for the caller to cast."""
    arr = real_array(name, value, error)
    if arr.size and arr.dtype.kind in "uf":  # trunc's temporary goes before min and max
        whole = arr.dtype.kind == "u" or (np.all(arr == np.trunc(arr)) and arr.min() >= -(2**63))
        if not (whole and arr.max() < 2**63):
            raise error(f"{name} must be whole numbers that fit in int64")
    return arr
