"""Exception hierarchy shared across the package, and its number checks.

Every error the library raises derives from StratsegError; the class name
doubles as the machine-parsable category printed by the CLI.
"""

import numbers


class StratsegError(Exception):
    """Base class for all stratseg errors."""


class InvalidArgument(StratsegError, ValueError):
    """A parameter (policy, weights, simplex, kernel, d, pixels) is out of range."""


# --- image I/O ---

class MalformedHeader(StratsegError):
    """PGM header is syntactically invalid."""


class TruncatedData(StratsegError):
    """PGM raster holds fewer samples than width * height."""


class UnsupportedMaxval(StratsegError):
    """PGM maxval exceeds 255."""


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
