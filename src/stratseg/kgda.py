"""Kernel generalized discriminant analysis.

Class scatter is expressed through the training kernel matrix K: its
columns stand in for mapped samples and class kernel means for feature-space
means; copies of a sample get bit-equal rows and columns of K. Discriminant
directions are coefficient vectors solving the pencil of the between- against
the regularized within-class kernel scatter, whose rank of at most Z - 1
reduces it to a Z x Z symmetric eigenproblem. Everything runs in float64. The
class means and the residual of the refinement of B^-1 C, B = U_w + eps I,
are error-free float64 products: K is split once into a leading part whose
BLAS products are exact and a remainder, and two-sums carry each result as a
hi + lo pair; nothing reads K after that. A class's mean in discriminant
space is its kernel mean times the coefficients. The discriminants are made
orthonormal in the metric of B by Cholesky QR.

RBF distances use the Gram expansion ||x||^2 + ||y||^2 - 2 x.y (one BLAS
product) on features centred at the training mean. `project` fills its
output in fixed row chunks, so a batch of any size never materializes its
full kernel block; a projection that is not finite raises DegenerateKernel.
The CSV reader and writer likewise hold one block of cells at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .errors import (
    CsvParse,
    DegenerateKernel,
    DimensionMismatch,
    InvalidArgument,
    InvalidDataset,
    InvalidModel,
    real_array,
    real_number,
    whole_array,
    whole_number,
)

__all__ = [
    "LabeledDataset",
    "KernelSpec",
    "ScatterMatrices",
    "GdaModel",
    "compute_kernel_matrix",
    "scatter_matrices",
    "train_gda",
    "project",
    "classify_nearest_mean",
    "load_dataset_csv",
    "save_dataset_csv",
    "save_model",
    "load_model",
    "regularization_epsilon",
]

_CHUNK_ENTRIES = 2**17  # kernel entries per row chunk in project (1 MiB of float64)
_CSV_BLOCK_CHARS = 2**18  # characters of CSV text per block in read_csv and write_csv
KERNEL_KINDS = ("linear", "rbf", "polynomial")


@dataclass(frozen=True)
class LabeledDataset:
    """M real sample vectors of dimension n with integer class labels."""

    samples: np.ndarray  # (M, n) float64
    labels: np.ndarray  # (M,) int

    def __post_init__(self):
        x = np.ascontiguousarray(real_array("samples", self.samples, InvalidDataset), np.float64)
        y = whole_array("labels", self.labels, InvalidDataset).astype(np.int64)
        if x.ndim != 2 or 0 in x.shape:
            raise InvalidDataset("samples must be a non-empty (M, n) array with n >= 1")
        if not np.all(np.isfinite(x)):
            raise InvalidDataset("samples must be finite (no NaN or inf)")
        if y.shape != (x.shape[0],):
            raise DimensionMismatch("one label per sample required")
        object.__setattr__(self, "samples", x)
        object.__setattr__(self, "labels", y)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel function: linear u.v, rbf exp(-gamma ||u-v||^2), or
    polynomial (u.v + coef)^degree. gamma defaults to 1/n at evaluation."""

    kind: str = "rbf"
    gamma: Optional[float] = None
    degree: int = 2
    coef: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InvalidArgument(f"unknown kernel kind {self.kind!r}")
        if self.gamma is not None and not 0 < real_number("gamma", self.gamma) < math.inf:
            raise InvalidArgument("gamma must be positive and finite")
        if not math.isfinite(real_number("coef", self.coef)):
            raise InvalidArgument("coef must be finite")
        object.__setattr__(self, "degree", whole_number("degree", self.degree))
        if not real_number("degree", self.degree) >= 1:
            raise InvalidArgument("degree must be >= 1")


def _cross_kernel(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """(N, M) kernel block between the rows of x and the training rows y.

    RBF distances use the Gram expansion ||x||^2 + ||y||^2 - 2 x.y, one BLAS
    product, with both sides centred on the mean of y first (the kernel is
    translation-invariant; centring keeps the cancellation small when the
    features sit far from the origin) and clamped at 0. Overflow is left to
    IEEE arithmetic: an infinite RBF distance gives k = 0, and any other
    non-finite entry is reported by the caller.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "linear":
            return x @ y.T
        if spec.kind == "polynomial":
            return (x @ y.T + spec.coef) ** spec.degree
        gamma = spec.gamma if spec.gamma is not None else 1.0 / x.shape[1]
        centre = y.mean(axis=0)
        yc = y - centre
        xc = yc if x is y else x - centre
        k = xc @ yc.T
        k *= -2.0
        k += np.einsum("ij,ij->i", xc, xc)[:, None]
        k += np.einsum("ij,ij->i", yc, yc)
        np.maximum(k, 0.0, out=k)
        k *= -gamma
        return np.exp(k, out=k)


def compute_kernel_matrix(data: LabeledDataset, spec: KernelSpec) -> np.ndarray:
    """M x M training kernel matrix, exactly symmetric (upper triangle
    mirrored), with no -0.0 entry and an RBF diagonal of exactly 1. A sample
    whose bits equal an earlier sample's takes that sample's row and column."""
    x = data.samples
    m = len(x)
    k = _cross_kernel(x, x, spec)
    np.copyto(k, k.T, where=np.tri(m, k=-1, dtype=bool))
    if spec.kind == "rbf":
        k.flat[:: m + 1] = 1.0  # exp(-gamma * 0), where the Gram expansion leaves rounding
    else:
        k += 0.0  # -0.0 becomes +0.0; exp never gives -0.0
    keys = x.view(np.dtype((np.void, x.strides[0]))).ravel()  # a row's bytes
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    dup = np.flatnonzero(first[inverse] != np.arange(m))  # BLAS may round copies apart
    k[dup] = k[first[inverse[dup]]]
    k[:, dup] = k[:, first[inverse[dup]]]  # entry (i, j) is now their first copies' entry
    return k


@dataclass(frozen=True)
class ScatterMatrices:
    """Between/within/total kernel scatter with the class kernel means."""

    u_b: np.ndarray
    u_w: np.ndarray
    u_t: np.ndarray
    class_means: np.ndarray  # (Z, M), one row per class in ascending label order


def scatter_matrices(k: np.ndarray, labels) -> ScatterMatrices:
    """Kernel scatter matrices in float64; satisfies u_t = u_b + u_w and all
    three PSD.

    U_b = c_b c_b^T with c_b the (M, Z) columns (delta_c - delta_0)
    sqrt(n_c / M), delta_c the mean of class c's kernel columns and delta_0
    the mean of all of them, and U_w = dev dev^T / M with dev the kernel
    columns minus their class means.
    """
    k = np.asarray(real_array("k", k), dtype=np.float64)
    m = k.shape[0]
    classes, inverse = np.unique(whole_array("labels", labels), return_inverse=True)
    deltas = np.stack([k[:, inverse == i].mean(axis=1) for i in range(len(classes))])
    delta0 = k.mean(axis=1)
    counts = np.bincount(inverse)
    c_b = ((deltas - delta0) * np.sqrt(counts / m)[:, None]).T
    dev_w = k - deltas[inverse].T  # column j minus its class mean
    u_b = c_b @ c_b.T
    u_w = dev_w @ dev_w.T / m
    dev_t = k - delta0[:, None]
    u_t = dev_t @ dev_t.T / m
    sym = lambda a: (a + a.T) / 2
    return ScatterMatrices(sym(u_b), sym(u_w), sym(u_t), deltas)


def regularization_epsilon(u_w: np.ndarray) -> float:
    """Trace-scaled ridge added to the within-class scatter (floor 1e-12)."""
    m = u_w.shape[0]
    return max(1e-8 * float(np.trace(u_w)) / m, 1e-12)


@dataclass(frozen=True)
class GdaModel:
    """Trained discriminant model; immutable and safe for concurrent use."""

    samples: np.ndarray  # (M, n) training samples
    labels: np.ndarray  # (M,)
    spec: KernelSpec
    sigmas: np.ndarray  # (M, d) discriminant coefficient columns
    etas: np.ndarray  # (d,) nonincreasing eigenvalues
    eps: float
    class_means: np.ndarray  # (Z, d) class means in discriminant space
    achieved_all: bool = True  # False when rank limited the discriminant count

    @property
    def classes(self) -> np.ndarray:
        """(Z,) ascending class labels: the distinct training labels."""
        # a set, not np.unique, whose first call in a process adds about 1 MiB of RSS
        return np.array(sorted(set(self.labels.tolist())), dtype=np.int64)

    @property
    def n_discriminants(self) -> int:
        return self.sigmas.shape[1]


# --- error-free float64 products -------------------------------------------
# A pair (hi, lo) stands for the unevaluated sum hi + lo.

_SPLITTER = 2.0**27 + 1  # Veltkamp's factor: splits a double into 26-bit halves


def _magnitude(a: np.ndarray, axis=None) -> np.ndarray:
    """Largest |a| along `axis` (all of a if None), dimensions kept."""
    return np.maximum(a.max(axis=axis, keepdims=True), -a.min(axis=axis, keepdims=True))


def _split(a: np.ndarray, top, tau: int, out=None) -> tuple:
    """(a1, a - a1), both exact, the remainder written to `out` if given: a1
    rounds each entry to a multiple of 2**(e + tau - 53), where 2**e is the
    power of two at or above its bound in `top`, an array that broadcasts
    against a (ExtractScalar; Ozaki, Ogita, Oishi & Rump, Numer. Algorithms
    59, 2012).

    When both factors of a product are split so, the left one with a bound
    per row (or one for all) and the right one with a bound per column (or
    one for all), and 2 tau >= 53 + ceil(log2 M) for their shared dimension
    M, every partial sum of the leading parts' product is a whole number of
    units below 2**53, so BLAS forms it exactly in any summation order. The
    remainders are about 2**(tau - 53) times smaller than the data.
    """
    sigma = np.ldexp(1.0, np.frexp(top)[1] + tau)
    a1 = a + sigma
    a1 -= sigma
    return a1, np.subtract(a, a1, out=out)


def _two_sum(a, b) -> tuple:
    """(a + b, its rounding error), exact whatever the magnitudes (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _pair_div(hi, lo, n) -> tuple:
    """(hi + lo) / n as a pair, for whole n below 2**26. The remainder
    hi - q n of q = hi / n is exact: q n is taken as the sum of q's two
    26-bit halves times n, and each of those products is exact."""
    q = hi / n
    c = q * _SPLITTER
    q_hi = c - (c - q)
    rem = (hi - q_hi * n) - (q - q_hi) * n
    return q, (rem + lo) / n


def _pair_product(a: tuple, x_hi: np.ndarray, x_lo, tau: int) -> tuple:
    """A @ (x_hi + x_lo) as a pair, A = a1 + ar + a_lo given as the tuple a
    of its `_split` parts a1 and ar and a low part a_lo, and x_lo at most an
    ulp of x_hi. x_hi is split here by columns, so a1 @ x1 is exact, and
    what BLAS rounds is of remainders about 2**(tau - 53) times smaller than
    A x; the products of two low parts are below that again and left out."""
    a1, ar, a_lo = a
    x1, xr = _split(x_hi, _magnitude(x_hi, axis=0), tau)
    z = x_hi.shape[1]
    p = a1 @ np.hstack([x1, xr + x_lo])
    rest = p[:, z:] + ar @ x_hi
    rest += a_lo @ x_hi
    return _two_sum(p[:, :z], rest)


def _minus_class_means(k: np.ndarray, means: tuple, e_t: np.ndarray, bufs: tuple) -> tuple:
    """(dev, dev_lo): D = K - Mc E^T, the kernel columns minus their class
    means (the pair `means`, one column per class; e_t is E^T, one-hot), with
    dev its float64 rounding and dev_lo the rest to about u^2 max|K|, u the
    float64 epsilon. The two M x M arrays `bufs` are scratch space; the first
    is returned as dev."""
    t, g = bufs
    np.matmul(means[0], e_t, out=g)  # exact: one nonzero term per entry
    dev = k - g
    np.subtract(dev, k, out=t)
    lo = dev - t
    np.subtract(k, lo, out=lo)
    g += t
    lo -= g  # (k - g) - dev, exactly (TwoSum)
    np.matmul(means[1], e_t, out=g)
    np.subtract(dev, g, out=t)
    dev -= t
    dev -= g  # (dev - g) - t, exactly where |g| <= |dev|, else to u |g|
    lo += dev
    return t, lo


class _ExactScatter:
    """Class means, C = delta_c - delta_0 as a pair of (M, Z) columns, and
    D = K - Mc E^T as the pair (dev, dev_lo), of a training kernel K.

    K is split once by rows, K = k1 + kr, and K @ E (E the one-hot class
    matrix with a ones column) is exact in k1 and a float64 BLAS product in
    kr: each mean is exact up to the rounding of the remainder's sum, about
    M u 2**(tau - 53) times its row's largest |K|, given in `rows`.
    """

    def __init__(self, k: np.ndarray, rows: np.ndarray, inverse: np.ndarray, counts: np.ndarray):
        m, z = len(inverse), len(counts)
        self.tau = -(-(53 + (m - 1).bit_length()) // 2)
        k1, kr = _split(k, rows, self.tau)
        e = np.zeros((m, z + 1))
        e[np.arange(m), inverse] = 1.0
        e[:, z] = 1.0
        # delta_c, one column per class, then delta_0
        self.means = hi, lo = _pair_div(*_two_sum(k1 @ e, kr @ e), np.append(counts, m))
        c_hi, c_lo = _two_sum(hi[:, :z], -hi[:, z:])
        self.c = _two_sum(c_hi, c_lo + (lo[:, :z] - lo[:, z:]))
        self.dev, self.dev_lo = _minus_class_means(
            k, (hi[:, :z], lo[:, :z]), e[:, :z].T, (k1, kr)
        )

    def residual(self, y: np.ndarray, eps: float) -> np.ndarray:
        """C - D (D^T y) / M - eps y rounded to float64. dev is split in
        place for the products and is whole again on return."""
        d1, dr = _split(self.dev, _magnitude(self.dev), self.tau, out=self.dev)
        p = _pair_product((d1.T, dr.T, self.dev_lo.T), y, 0.0, self.tau)
        dp = _pair_product((d1, dr, self.dev_lo), *p, self.tau)
        self.dev += d1
        q_hi, q_lo = _pair_div(*dp, len(y))
        return (self.c[0] - q_hi - eps * y) + (self.c[1] - q_lo)


def _b_orthonormalize(sig: np.ndarray, apply_b) -> np.ndarray:
    """Columns of sig made orthonormal in the metric of B, each leading set of
    columns keeping its span: two passes of Cholesky QR through the factor of
    sig^T B sig (CholeskyQR2, Yamamoto et al., ETNA 44, 2015).

    apply_b maps a block of columns to B times it.
    """
    for _ in range(2):
        low = np.linalg.cholesky(sig.T @ apply_b(sig))
        sig = np.linalg.solve(low, sig.T).T
    return sig


def _require_finite(what: str, a) -> None:
    if not np.all(np.isfinite(a)):
        raise DegenerateKernel(f"kernel too large: {what} overflows float64")


def train_gda(
    data: LabeledDataset,
    spec: KernelSpec = KernelSpec(),
    d: Optional[int] = None,
) -> GdaModel:
    """Fit discriminant coefficient vectors from the kernel scatter pencil.

    `d` defaults to Z - 1; requesting more than the numerical rank of the
    between-class scatter yields fewer discriminants with achieved_all
    cleared rather than an error. A kernel too large for the scatter to be
    finite in float64 raises DegenerateKernel.
    """
    classes, inverse = np.unique(data.labels, return_inverse=True)
    z = len(classes)
    if z < 2:
        raise InvalidDataset(f"need at least 2 classes, got {z}")
    d_req = z - 1 if d is None else whole_number("d", d)
    if d_req < 1:
        raise InvalidArgument("d must be >= 1")

    k = compute_kernel_matrix(data, spec)
    rows = _magnitude(k, axis=0).T  # = along rows: K is symmetric
    k_max = float(rows.max())
    if not np.isfinite(k_max):
        raise DegenerateKernel("kernel matrix has non-finite entries")
    if k_max < 1e-30:
        raise DegenerateKernel("kernel matrix is numerically zero")
    m = k.shape[0]
    counts = np.bincount(inverse)
    with np.errstate(over="ignore", invalid="ignore"):
        # K's entries are rounded to about u max|K|, u the float64 epsilon: class
        # means less than ten such ulps apart, an eigenvalue below 100 M (u max|K|)^2,
        # are rounding, as for classes that are copies of each other
        floor = 100 * m * (np.finfo(np.float64).eps * k_max) ** 2
        _require_finite("the rank floor", floor)
        exact = _ExactScatter(k, rows, inverse, counts)
        del k  # freed: nothing reads K after the scatter
        deltas = exact.means[0][:, :z]  # class kernel means, one column per class
        dev = exact.dev  # kernel columns minus their class means
        b = dev @ dev.T
        b /= m  # U_w
        eps = regularization_epsilon(b)
        b.flat[:: m + 1] += eps  # B = U_w + eps I
        _require_finite("the within-class scatter", b)
        w = np.sqrt(counts / m)
        c_b = exact.c[0] * w  # U_b = C C^T
        gram = c_b.T @ c_b
        _require_finite("the between-class scatter", gram)

        def apply_b(s):  # B s with B in factored form, O(M^2) per column
            return dev @ (dev.T @ s) / m + eps * s

        ev_b = np.linalg.eigvalsh(gram)  # nonzero spectrum of U_b
        rank_b = int(np.sum(ev_b > max(1e-10 * ev_b[-1], floor)))
        d_eff = min(d_req, z - 1, rank_b)

        # U_b s = eta B s with U_b = C C^T reduces to the Z x Z problem
        # (C^T B^-1 C) v = eta v, s = B^-1 C v. B^-1 C is solved column by
        # column as (B^-1 (delta_c - delta_0)) sqrt(n_c / M); one refinement
        # step with an error-free residual makes it accurate.
        y = np.linalg.solve(b, exact.c[0])
        r = exact.residual(y, eps)
        del exact  # the low parts
        _require_finite("the refinement residual", r)
        y += np.linalg.solve(b, r)
        x = y * w
        g = c_b.T @ x
        _require_finite("C^T B^-1 C", g)
        _, v = np.linalg.eigh((g + g.T) / 2)
        sigmas = _b_orthonormalize(x @ v[:, ::-1][:, :d_eff], apply_b)
        etas = ((c_b.T @ sigmas) ** 2).sum(axis=0)  # sigma^T B sigma = I
        peak = np.abs(sigmas).argmax(axis=0)
        sigmas *= np.sign(sigmas[peak, np.arange(d_eff)])
        class_means = deltas.T @ sigmas  # mean of K sigma's rows over each class
    return GdaModel(
        samples=data.samples,
        labels=data.labels,
        spec=spec,
        # C order, as load_model builds it, so `project` gives the same bits
        # before and after a save_model/load_model round trip
        sigmas=np.ascontiguousarray(sigmas),
        etas=etas,
        eps=eps,
        class_means=class_means,
        achieved_all=d_eff == d_req,
    )


def project(model: GdaModel, u: np.ndarray) -> np.ndarray:
    """Discriminant-space coordinates of one sample (or a batch of rows).

    The batch is projected in row chunks of about _CHUNK_ENTRIES kernel
    entries, so memory stays bounded whatever the batch size.
    """
    u = np.asarray(real_array("samples", u, InvalidDataset), np.float64)
    if u.ndim not in (1, 2):
        raise DimensionMismatch(f"samples must be a vector or (N, n) rows, got {u.ndim}-D")
    if not np.all(np.isfinite(u)):
        raise InvalidDataset("samples must be finite (no NaN or inf)")
    single = u.ndim == 1
    batch = u[None, :] if single else u
    m, n = model.samples.shape
    if batch.shape[1] != n:
        raise DimensionMismatch(f"sample dim {batch.shape[1]} != model dim {n}")
    out = np.empty((len(batch), model.n_discriminants))
    step = max(1, _CHUNK_ENTRIES // m)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(batch), step):
            mu = _cross_kernel(batch[lo : lo + step], model.samples, model.spec)  # rows are mu_u
            out[lo : lo + step] = mu @ model.sigmas
    if not np.all(np.isfinite(out)):
        raise DegenerateKernel("projection has non-finite coordinates (kernel overflow)")
    return out[0] if single else out


def classify_nearest_mean(model: GdaModel, u: np.ndarray):
    """Class whose discriminant-space mean is nearest (smallest label on ties).

    The distances are taken in row chunks of about _CHUNK_ENTRIES
    differences, so the (N, Z, d) difference tensor never exists whole.
    """
    p = project(model, u)
    single = p.ndim == 1
    pts = p[None, :] if single else p
    means = model.class_means[None, :, :]
    idx = np.empty(len(pts), dtype=np.intp)
    step = max(1, _CHUNK_ENTRIES // max(1, means.size))
    for lo in range(0, len(pts), step):
        dists = np.linalg.norm(pts[lo : lo + step, None, :] - means, axis=2)
        idx[lo : lo + step] = np.argmin(dists, axis=1)  # first occurrence = smallest class label
    out = model.classes[idx]
    return int(out[0]) if single else out


# --- file formats -----------------------------------------------------------

def _labels(cells: list) -> np.ndarray:
    """int64 labels; ValueError for a cell that is not an integer or not in int64."""
    labels = list(map(int, cells))
    try:
        return np.array(labels, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"label {max(labels, key=abs)} does not fit in int64") from None


def _parse_rows(lines: list, n_features: Optional[int] = None, first: int = 0,
                row0: Optional[tuple] = None) -> tuple:
    """Row loop over stripped cells: what read_csv returns, or the error
    naming the first bad row. `lines` are the file's rows from row `first`
    on; `row0` is the layout (feature count, whether labelled) of row 0 of
    the file when row 0 is not among them."""
    if not lines and n_features is None:
        raise CsvParse("no data rows")
    samples, labels = [], []
    for i, line in enumerate(lines, first):
        cells = [c.strip() for c in line.split(",")]
        labelled = n_features is None or len(cells) == n_features + 1
        if n_features is None and len(cells) < 2:
            raise CsvParse(f"row {i}: need at least one feature and a label")
        if n_features is not None and len(cells) not in (n_features, n_features + 1):
            raise DimensionMismatch(
                f"row {i}: {len(cells)} columns, model expects {n_features} features"
            )
        if row0 is not None and labelled != row0[1]:
            raise DimensionMismatch(
                f"row {i}: {'a' if labelled else 'no'} label column, unlike row 0"
            )
        try:
            samples.append(list(map(float, cells[:-1] if labelled else cells)))
            if labelled:
                labels.append(_labels(cells[-1:])[0])
        except ValueError as exc:
            raise CsvParse(f"row {i}: {exc}") from None
        row0 = row0 or (len(samples[0]), labelled)
        if len(samples[-1]) != row0[0]:
            raise CsvParse(f"row {i}: inconsistent column count")
    n = n_features if row0 is None else row0[0]
    x = np.array(samples, dtype=np.float64).reshape(len(samples), n)
    return x, np.array(labels, dtype=np.int64) if labels else None


def _parse_joined(lines: list, n_features: Optional[int] = None) -> Optional[tuple]:
    """One pass over all cells at once: (samples, labels), or None wherever
    the row loop might raise, so that it can name the row."""
    if not lines:
        return None
    commas = lines[0].count(",")
    if any(ln.count(",") != commas for ln in lines):
        return None
    n = commas if n_features is None else n_features
    labelled = commas == n
    if n == 0 or commas not in (n - 1, n):
        return None
    cells = ",".join(lines).split(",")
    labels = None
    try:
        if labelled:
            labels = _labels(cells[n :: n + 1])
            del cells[n :: n + 1]
        samples = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        return None
    return samples.reshape(len(lines), n), labels


def _csv_blocks(text: str, header: bool):
    """The non-blank lines of `text`, less the first if `header`, as lists of
    lines from blocks of the text, each cut after a newline about every
    _CSV_BLOCK_CHARS characters; blocks with no data line are skipped."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CSV_BLOCK_CHARS - 1) + 1 or len(text)
        lines = [ln for ln in text[start:end].splitlines() if ln.strip()]
        start = end
        if header and lines:
            del lines[0]
            header = False
        if lines:
            yield lines


def read_csv(text: str, header: bool = False, n_features: Optional[int] = None) -> tuple:
    """(samples, labels) of the non-blank lines; `header` drops the first.
    Rows are 'f1,...,fn,label' (CsvParse otherwise); with n_features they hold
    n_features cells and a trailing label on every row or on none
    (DimensionMismatch otherwise; labels is then None). A label beyond int64
    is a CsvParse error.

    The text is parsed one block at a time, so only the block's cells are
    held; where a block does not parse, or its layout differs from the first
    block's, the row loop over that block names its first bad row."""
    layout = lambda part: (part[0].shape[1], part[1] is not None)  # features, and a label column
    parts, first = [], 0
    for lines in _csv_blocks(text, header):
        part = _parse_joined(lines, n_features)
        if part is None or parts and layout(part) != layout(parts[0]):
            part = _parse_rows(lines, n_features, first, layout(parts[0]) if parts else None)
        parts.append(part)
        first += len(lines)
    if not parts:
        return _parse_rows([], n_features)
    samples, labels = zip(*parts)
    return np.concatenate(samples), None if labels[0] is None else np.concatenate(labels)


def _csv_rows(samples: np.ndarray, labels) -> str:
    """The rows of write_csv, each ending in a newline."""
    rows = [list(map(repr, row)) for row in samples.tolist()]
    if labels is not None:
        rows = [cells + [str(lab)] for cells, lab in zip(rows, labels.tolist())]
    return "".join(",".join(cells) + "\n" for cells in rows)


def write_csv(samples: np.ndarray, labels=None, prefix: Optional[str] = None) -> str:
    """Rows of shortest round-trip floats, each then its label if labels are
    given; `prefix` adds the header line prefix0,prefix1,...[,label]. Row
    strings are built one block of rows at a time; no rows and no header
    give one empty line."""
    cols = [f"{prefix}{i}" for i in range(samples.shape[1])] + ["label"] * (labels is not None)
    blocks = [] if prefix is None else [",".join(cols) + "\n"]
    # a shortest float repr, or an int64, takes at most 24 characters and a comma
    step = max(1, _CSV_BLOCK_CHARS // (25 * (samples.shape[1] + 1)))
    for lo in range(0, len(samples), step):
        block = slice(lo, lo + step)
        blocks.append(_csv_rows(samples[block], None if labels is None else labels[block]))
    return "".join(blocks) or "\n"


def load_dataset_csv(text: str, header: bool = False) -> LabeledDataset:
    """Parse 'f1,...,fn,label' rows; the last column is the integer label."""
    return LabeledDataset(*read_csv(text, header))


def save_dataset_csv(data: LabeledDataset, header: bool = False) -> str:
    """Inverse of load_dataset_csv; floats use shortest round-trip repr."""
    return write_csv(data.samples, data.labels, "f" if header else None)


def save_model(model: GdaModel) -> str:
    """Serialize a model to deterministic JSON."""
    doc = {
        "kernel": asdict(model.spec),
        "eps": model.eps,
        "samples": model.samples.tolist(),
        "labels": model.labels.tolist(),
        "sigmas": model.sigmas.tolist(),
        "etas": model.etas.tolist(),
        "class_means": model.class_means.tolist(),
        "achieved_all": model.achieved_all,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _holds_bool(v) -> bool:
    """Whether v, parsed JSON that np.array reads as an array of numbers, holds a bool."""
    while type(v) is list and v and type(v[0]) is list:
        v = list(chain.from_iterable(v))  # one level flatter: the nesting is regular
    return bool in set(map(type, v)) if type(v) is list else type(v) is bool


def load_model(text: str) -> GdaModel:
    """Inverse of save_model; a malformed file raises InvalidModel. The training
    set is checked as a LabeledDataset, whose distinct labels are the classes:
    a `classes` key, which older versions wrote, is ignored."""
    try:
        doc = json.loads(text)
        kern = doc["kernel"]
        spec = KernelSpec(
            kind=kern["kind"], gamma=kern["gamma"], degree=kern["degree"], coef=kern["coef"]
        )
        fields = ("samples", "sigmas", "class_means", "etas", "labels")
        # a string or null entry gives another kind than int or float; a bool among numbers does not
        a = {f: np.array(doc[f]) for f in fields}
        eps = real_number("eps", doc["eps"], InvalidModel)
        for name, v in (*a.items(), ("eps", np.array(eps))):
            if v.dtype.kind not in "iuf" or _holds_bool(doc[name]) or not np.all(np.isfinite(v)):
                raise InvalidModel(f"{name} must hold finite numbers only")
        data = LabeledDataset(a["samples"], a["labels"])
        sig, means, etas = (a[f].astype(np.float64, copy=False) for f in fields[1:4])
        if not isinstance(doc["achieved_all"], bool):
            raise InvalidModel("achieved_all must be true or false")
        model = GdaModel(
            samples=data.samples,
            labels=data.labels,
            spec=spec,
            sigmas=sig.reshape(len(data.labels), -1),
            etas=etas,
            eps=float(eps),
            class_means=means,
            achieved_all=doc["achieved_all"],
        )
        if means.shape != (len(model.classes), model.n_discriminants):
            raise InvalidModel("class_means must hold one row per class and one column per sigma")
        if etas.shape != (model.n_discriminants,):
            raise InvalidModel("etas must hold one number per sigma")
        return model
    except KeyError as exc:
        raise InvalidModel(f"missing field {exc}") from None
    except (InvalidDataset, DimensionMismatch, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        raise InvalidModel(str(exc)) from None
