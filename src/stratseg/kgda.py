"""Kernel generalized discriminant analysis.

Class scatter is expressed entirely through the training kernel matrix:
columns of K play the role of mapped samples, class/global kernel means
replace feature-space means, and discriminant directions are coefficient
vectors solving the generalized eigenproblem of the between-class against
the (regularized) within-class kernel scatter. The between-class scatter
has rank at most Z - 1, so the M x M pencil is reduced to a Z x Z symmetric
eigenproblem. Training runs in float64 throughout. The class means and the
residual of the refinement of B^-1 C, B = U_w + eps I, are error-free
float64 products: K is split once into a leading part whose BLAS products
are exact and a remainder, and two-sums carry each result as a hi + lo
pair. The discriminants are made orthonormal in the metric of B by
Cholesky QR.

RBF distances use the Gram expansion ||x||^2 + ||y||^2 - 2 x.y (one BLAS
product) on features centred at the training mean. `project` fills its
output in fixed row chunks, so a batch of any size never materializes its
full kernel block; a projection that is not finite raises DegenerateKernel.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    CsvParse,
    DegenerateKernel,
    DimensionMismatch,
    InvalidArgument,
    InvalidDataset,
    InvalidModel,
    ZeroVector,
    real_number,
    whole_number,
)

__all__ = [
    "LabeledDataset",
    "KernelSpec",
    "ScatterMatrices",
    "GdaModel",
    "compute_kernel_matrix",
    "kernel_class_means",
    "scatter_matrices",
    "fisher_criterion",
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
_FLOAT_MAX = sys.float_info.max  # compares exactly with an int of any size
KERNEL_KINDS = ("linear", "rbf", "polynomial")


@dataclass(frozen=True)
class LabeledDataset:
    """M real sample vectors of dimension n with integer class labels."""

    samples: np.ndarray  # (M, n) float64
    labels: np.ndarray  # (M,) int

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.samples, dtype=np.float64))
        y = _int64_labels(self.labels)
        if x.ndim != 2 or 0 in x.shape:
            raise InvalidDataset("samples must be a non-empty (M, n) array with n >= 1")
        if not np.all(np.isfinite(x)):
            raise InvalidDataset("samples must be finite (no NaN or inf)")
        if y.shape != (x.shape[0],):
            raise DimensionMismatch("one label per sample required")
        object.__setattr__(self, "samples", x)
        object.__setattr__(self, "labels", y)

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.labels)

    @property
    def n_features(self) -> int:
        return self.samples.shape[1]


def _int64_labels(labels) -> np.ndarray:
    """Labels as int64; InvalidDataset unless each is a whole number inside
    int64. A whole float such as 2.0 becomes 2; a fraction or a uint64
    beyond int64 is an error, not a truncated or wrapped label."""
    raw = np.asarray(labels)
    if raw.dtype.kind == "f":
        whole = np.isfinite(raw) & (raw == np.trunc(raw))
        if not np.all(whole & (raw >= -(2.0**63)) & (raw < 2.0**63)):
            raise InvalidDataset("labels must be whole numbers that fit in int64")
    elif raw.dtype.kind == "u" and raw.size and raw.max() > np.iinfo(np.int64).max:
        raise InvalidDataset("labels must fit in int64")
    try:
        return raw.astype(np.int64)
    except OverflowError:
        raise InvalidDataset("labels must fit in int64") from None


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
        if self.gamma is not None and not 0 < real_number("gamma", self.gamma) <= _FLOAT_MAX:
            raise InvalidArgument("gamma must be positive and finite")
        if not -_FLOAT_MAX <= real_number("coef", self.coef) <= _FLOAT_MAX:
            raise InvalidArgument("coef must be finite")
        object.__setattr__(self, "degree", whole_number("degree", self.degree))
        if not 1 <= self.degree <= _FLOAT_MAX:
            raise InvalidArgument("degree must be >= 1 and finite")


def _cross_kernel(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """(N, M) kernel block between the rows of x and the training rows y.

    RBF distances use the Gram expansion ||x||^2 + ||y||^2 - 2 x.y, one BLAS
    product, with both sides centred on the mean of y first (the kernel is
    translation-invariant; centring keeps the cancellation small when the
    features sit far from the origin) and clamped at 0. Overflow is left to
    IEEE arithmetic: an infinite RBF distance gives k = 0, and any other
    non-finite entry is reported by the caller.
    """
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatch(f"feature dims differ: {x.shape[1]} vs {y.shape[1]}")
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
    mirrored) and with no -0.0 entry. Under RBF the entry of two samples with
    equal bits, the diagonal included, is exactly 1, i.e. exp(-gamma * 0): the
    Gram expansion would leave rounding of about gamma ||x - mean||^2 ulps
    there."""
    x = data.samples
    m = len(x)
    k = _cross_kernel(x, x, spec)
    np.copyto(k, k.T, where=np.tri(m, k=-1, dtype=bool))
    if spec.kind != "rbf":
        k += 0.0  # -0.0 becomes +0.0; exp never gives -0.0
        return k
    uniq, row = np.unique(x.view(np.dtype((np.void, x.strides[0]))).ravel(), return_inverse=True)
    if len(uniq) == m:  # all samples distinct: only the diagonal
        k.flat[:: m + 1] = 1.0
    else:
        k[row[:, None] == row] = 1.0
    return k


def kernel_class_means(k: np.ndarray, labels) -> tuple:
    """Per-class and global averages of kernel-matrix columns.

    Returns (deltas, delta0): deltas has one row per class in ascending
    label order; delta0 is the global column mean.
    """
    return _class_means(k, labels)[:2]


def _class_means(k: np.ndarray, labels) -> tuple:
    """kernel_class_means plus each column's row of deltas (the class inverse)."""
    classes, inverse = np.unique(labels, return_inverse=True)
    deltas = [k[:, inverse == i].mean(axis=1) for i in range(len(classes))]
    return np.stack(deltas), k.mean(axis=1), inverse


@dataclass(frozen=True)
class ScatterMatrices:
    """Between/within/total kernel scatter with the kernel mean vectors."""

    u_b: np.ndarray
    u_w: np.ndarray
    u_t: np.ndarray
    class_means: np.ndarray  # (Z, M)
    global_mean: np.ndarray  # (M,)


def scatter_matrices(k: np.ndarray, labels) -> ScatterMatrices:
    """Kernel scatter matrices; satisfies u_t = u_b + u_w and all three PSD.

    U_b = c_b c_b^T with c_b the (M, Z) columns (delta_c - delta_0)
    sqrt(n_c / M), and U_w = dev dev^T / M with dev the kernel columns minus
    their class means. They are formed in k's dtype when it is wider than
    float64 (longdouble); any other k is taken as float64.
    """
    k = np.asarray(k)
    k = k.astype(np.result_type(k, np.float64), copy=False)
    m = k.shape[0]
    deltas, delta0, inverse = _class_means(k, np.asarray(labels))
    counts = np.bincount(inverse).astype(k.dtype)
    c_b = ((deltas - delta0) * np.sqrt(counts / m)[:, None]).T
    dev_w = k - deltas[inverse].T  # column j minus its class mean
    u_b = c_b @ c_b.T
    u_w = dev_w @ dev_w.T / m
    dev_t = k - delta0[:, None]
    u_t = dev_t @ dev_t.T / m
    sym = lambda a: (a + a.T) / 2
    return ScatterMatrices(sym(u_b), sym(u_w), sym(u_t), deltas, delta0)


def regularization_epsilon(u_w: np.ndarray) -> float:
    """Trace-scaled ridge added to the within-class scatter (floor 1e-12)."""
    m = u_w.shape[0]
    return max(1e-8 * float(np.trace(u_w.astype(np.float64, copy=False))) / m, 1e-12)


def fisher_criterion(sigma: np.ndarray, s: ScatterMatrices, eps: Optional[float] = None) -> float:
    """Rayleigh quotient of between- over regularized within-class scatter."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (s.u_b.shape[0],):
        raise DimensionMismatch("sigma length must match scatter dimension")
    if not np.any(sigma):
        raise ZeroVector("sigma must be nonzero")
    if eps is None:
        eps = regularization_epsilon(s.u_w)
    num = sigma @ s.u_b @ sigma
    den = sigma @ s.u_w @ sigma + eps * (sigma @ sigma)
    return float(num / den)


@dataclass(frozen=True)
class GdaModel:
    """Trained discriminant model; immutable and safe for concurrent use."""

    samples: np.ndarray  # (M, n) training samples
    labels: np.ndarray  # (M,)
    spec: KernelSpec
    sigmas: np.ndarray  # (M, d) discriminant coefficient columns
    etas: np.ndarray  # (d,) nonincreasing eigenvalues
    eps: float
    classes: np.ndarray  # (Z,) ascending class labels
    class_means: np.ndarray  # (Z, d) class means in discriminant space
    achieved_all: bool = True  # False when rank limited the discriminant count

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
    d_req = z - 1 if d is None else int(d)
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

        proj = k @ sigmas  # row j = projection of training sample j
        class_means = np.stack([proj[inverse == i].mean(axis=0) for i in range(z)])
    return GdaModel(
        samples=data.samples,
        labels=data.labels,
        spec=spec,
        # C order, as load_model builds it, so `project` gives the same bits
        # before and after a save_model/load_model round trip
        sigmas=np.ascontiguousarray(sigmas),
        etas=etas,
        eps=eps,
        classes=classes,
        class_means=class_means,
        achieved_all=d_eff == d_req,
    )


def project(model: GdaModel, u: np.ndarray) -> np.ndarray:
    """Discriminant-space coordinates of one sample (or a batch of rows).

    The batch is projected in row chunks of about _CHUNK_ENTRIES kernel
    entries, so memory stays bounded whatever the batch size.
    """
    u = np.asarray(u, dtype=np.float64)
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
    """Class whose discriminant-space mean is nearest (smallest label on ties)."""
    p = project(model, u)
    single = p.ndim == 1
    pts = p[None, :] if single else p
    dists = np.linalg.norm(pts[:, None, :] - model.class_means[None, :, :], axis=2)
    idx = np.argmin(dists, axis=1)  # first occurrence = smallest class label
    out = model.classes[idx]
    return int(out[0]) if single else out


# --- file formats -----------------------------------------------------------

def _csv_lines(text: str, header: bool) -> list:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return lines[1:] if header else lines


def _labels(cells: list) -> np.ndarray:
    """int64 labels; ValueError for a cell that is not an integer or not in int64."""
    labels = list(map(int, cells))
    try:
        return np.array(labels, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"label {max(labels, key=abs)} does not fit in int64") from None


def _parse_rows(lines: list, n_features: Optional[int] = None) -> tuple:
    """Row loop over stripped cells: what read_csv returns, or the error
    naming the first bad row."""
    if not lines and n_features is None:
        raise CsvParse("no data rows")
    samples, labels = [], []
    for i, line in enumerate(lines):
        cells = [c.strip() for c in line.split(",")]
        labelled = n_features is None or len(cells) == n_features + 1
        if n_features is None and len(cells) < 2:
            raise CsvParse(f"row {i}: need at least one feature and a label")
        if n_features is not None and len(cells) not in (n_features, n_features + 1):
            raise DimensionMismatch(
                f"row {i}: {len(cells)} columns, model expects {n_features} features"
            )
        if i and labelled != bool(labels):
            raise DimensionMismatch(
                f"row {i}: {'a' if labelled else 'no'} label column, unlike row 0"
            )
        try:
            samples.append(list(map(float, cells[:-1] if labelled else cells)))
            if labelled:
                labels.append(_labels(cells[-1:])[0])
        except ValueError as exc:
            raise CsvParse(f"row {i}: {exc}") from None
        if len(samples[-1]) != len(samples[0]):
            raise CsvParse(f"row {i}: inconsistent column count")
    n = len(samples[0]) if n_features is None else n_features
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


def read_csv(text: str, header: bool = False, n_features: Optional[int] = None) -> tuple:
    """(samples, labels) of the non-blank lines; `header` drops the first.
    Rows are 'f1,...,fn,label' (CsvParse otherwise); with n_features they hold
    n_features cells and a trailing label on every row or on none
    (DimensionMismatch otherwise; labels is then None). A label beyond int64
    is a CsvParse error."""
    lines = _csv_lines(text, header)
    parsed = _parse_joined(lines, n_features)
    return _parse_rows(lines, n_features) if parsed is None else parsed


def write_csv(samples: np.ndarray, labels=None, prefix: Optional[str] = None) -> str:
    """Rows of shortest round-trip floats, each then its label if labels are
    given; `prefix` adds the header line prefix0,prefix1,...[,label]."""
    cols = [f"{prefix}{i}" for i in range(samples.shape[1])]
    rows = [list(map(repr, row)) for row in samples.tolist()]
    if labels is not None:
        cols.append("label")
        rows = [cells + [str(lab)] for cells, lab in zip(rows, labels.tolist())]
    lines = ([] if prefix is None else [cols]) + rows
    return "\n".join(map(",".join, lines)) + "\n"


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
        "classes": model.classes.tolist(),
        "class_means": model.class_means.tolist(),
        "achieved_all": model.achieved_all,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_model(text: str) -> GdaModel:
    """Inverse of save_model; malformed JSON or a missing or ill-typed field
    raises InvalidModel."""
    try:
        doc = json.loads(text)
        kern = doc["kernel"]
        spec = KernelSpec(
            kind=kern["kind"], gamma=kern["gamma"], degree=kern["degree"], coef=kern["coef"]
        )
        m = len(doc["labels"])
        samples = np.array(doc["samples"], dtype=np.float64)
        sig = np.array(doc["sigmas"], dtype=np.float64).reshape(m, -1)
        means = np.array(doc["class_means"], dtype=np.float64).reshape(
            len(doc["classes"]), -1
        )
        etas = np.array(doc["etas"], dtype=np.float64)
        eps = float(doc["eps"])
        if samples.ndim != 2 or len(samples) != m or means.shape[1] != sig.shape[1]:
            raise InvalidModel("samples, labels, sigmas and class_means disagree in shape")
        if samples.shape[1] == 0:
            raise InvalidModel("samples must have at least one feature")
        for name, a in (("samples", samples), ("sigmas", sig), ("class_means", means),
                        ("etas", etas), ("eps", eps)):
            if not np.all(np.isfinite(a)):
                raise InvalidModel(f"{name} must be finite (no NaN or inf)")
        return GdaModel(
            samples=samples,
            labels=_int64_labels(doc["labels"]),
            spec=spec,
            sigmas=sig,
            etas=etas,
            eps=eps,
            classes=_int64_labels(doc["classes"]),
            class_means=means,
            achieved_all=bool(doc["achieved_all"]),
        )
    except KeyError as exc:
        raise InvalidModel(f"missing field {exc}") from None
    except (InvalidDataset, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise InvalidModel(str(exc)) from None
