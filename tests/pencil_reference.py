"""Full-pencil reference solver for the discriminant eigenproblem.

An independent route to the discriminants that `train_gda` computes by
low-rank reduction: it forms the M x M pencil (U_b, U_w + eps I) in
extended precision, estimates its top eigenpairs with LAPACK and polishes
each by Rayleigh-quotient inverse iteration carried out in numpy's
`longdouble`. It costs O(M^3) longdouble work, so it serves only as a test
reference on small problems.

The kernel class means, the longdouble scatter and the Fisher criterion the
tests check training against live here too; the library itself computes in
float64 only.
"""

import numpy as np
from scipy.linalg import eigh

from stratseg import ScatterMatrices, compute_kernel_matrix
from stratseg.kgda import regularization_epsilon

LD = np.longdouble


def kernel_class_means(k: np.ndarray, labels) -> tuple:
    """(deltas, delta0) in k's dtype: deltas holds the mean of each class's
    kernel columns, one row per class in ascending label order, and delta0
    the mean of all columns."""
    classes, inverse = np.unique(labels, return_inverse=True)
    deltas = [k[:, inverse == i].mean(axis=1) for i in range(len(classes))]
    return np.stack(deltas), k.mean(axis=1)


def scatter_ld(k: np.ndarray, labels) -> ScatterMatrices:
    """`scatter_matrices` carried out in longdouble: U_b = c_b c_b^T with
    c_b the columns (delta_c - delta_0) sqrt(n_c / M), U_w and U_t the
    class-centred and globally centred kernel columns times their transposes
    over M."""
    k = np.asarray(k, dtype=LD)
    m = k.shape[0]
    deltas, delta0 = kernel_class_means(k, labels)
    inverse = np.unique(labels, return_inverse=True)[1]
    counts = np.bincount(inverse).astype(LD)
    c_b = ((deltas - delta0) * np.sqrt(counts / m)[:, None]).T
    dev_w = k - deltas[inverse].T  # column j minus its class mean
    dev_t = k - delta0[:, None]
    sym = lambda a: (a + a.T) / 2
    return ScatterMatrices(
        sym(c_b @ c_b.T), sym(dev_w @ dev_w.T / m), sym(dev_t @ dev_t.T / m), deltas
    )


def fisher_criterion(sigma: np.ndarray, s: ScatterMatrices, eps: float) -> float:
    """Rayleigh quotient of between- over regularized within-class scatter."""
    num = sigma @ s.u_b @ sigma
    den = sigma @ s.u_w @ sigma + eps * (sigma @ sigma)
    return float(num / den)


def solve_ld(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by Gaussian elimination with partial pivoting in longdouble."""
    a = np.array(a, dtype=LD, copy=True)
    b = np.array(b, dtype=LD, copy=True)
    n = a.shape[0]
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k]).astype(np.float64)))
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        if a[k, k] == 0:
            a[k, k] = np.finfo(LD).tiny
        m = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(m, a[k, k + 1 :])
        b[k + 1 :] -= m * b[k]
    x = np.zeros(n, dtype=LD)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x


def _rel_residual(a, b, x, lam) -> float:
    num = np.linalg.norm((a @ x - lam * (b @ x)).astype(np.float64))
    den = max(np.linalg.norm((a @ x).astype(np.float64)), 1e-300)
    return float(num / den)


def refine_pencil_eigenpair(a, b, x0, lam0, iters: int = 3):
    """Rayleigh-quotient iteration on the pencil a x = lam b x (longdouble).

    Keeps the best (lowest-residual) iterate, so a non-converging refinement
    can never degrade the LAPACK estimate.
    """
    x = np.array(x0, dtype=LD)
    x = x / np.sqrt(x @ x)
    lam = LD(lam0)
    best = (x, lam, _rel_residual(a, b, x, lam))
    for _ in range(iters):
        z = solve_ld(a - lam * b, b @ x)
        nz = np.sqrt(float(z @ z))
        if not np.isfinite(nz) or nz == 0:
            break
        z = z / np.sqrt(z @ z)
        lam_n = (z @ a @ z) / (z @ b @ z)
        r = _rel_residual(a, b, z, lam_n)
        if r < best[2]:
            best = (z, lam_n, r)
        x, lam = z, lam_n
    return best


def top_pencil_eigenpairs(a, b, k: int):
    """Largest-k eigenpairs of the symmetric-definite pencil, refined.

    Returns (eigenvalues, eigenvectors) with eigenvalues nonincreasing and
    eigenvectors as longdouble columns.
    """
    w, v = eigh(a.astype(np.float64), b.astype(np.float64))
    order = np.argsort(w)[::-1][:k]
    lams, vecs = [], []
    for i in order:
        x, lam, _ = refine_pencil_eigenpair(a, b, v[:, i].astype(LD), LD(w[i]))
        lams.append(lam)
        vecs.append(x)
    return np.array(lams, dtype=LD), np.column_stack(vecs)


def _normalize_sign(sigma_ld: np.ndarray, uwe: np.ndarray) -> np.ndarray:
    sigma_ld = sigma_ld / np.sqrt(sigma_ld @ uwe @ sigma_ld)
    s64 = sigma_ld.astype(np.float64)
    if s64[int(np.argmax(np.abs(s64)))] < 0:
        sigma_ld = -sigma_ld
    return sigma_ld


def full_pencil_discriminants(data, spec, d: int):
    """Top-d (sigmas, etas) of the full kernel scatter pencil, as float64.

    The pencil and eps are built exactly as in `train_gda`'s documented
    problem: U_b and U_w from the kernel matrix in longdouble, eps from
    `regularization_epsilon`, sigmas scaled to unit scatter-metric norm with
    their largest-magnitude entry positive.
    """
    k = compute_kernel_matrix(data, spec).astype(LD)
    scat = scatter_ld(k, data.labels)
    eps = regularization_epsilon(scat.u_w.astype(np.float64))
    uwe = scat.u_w + LD(eps) * np.eye(k.shape[0], dtype=LD)
    lams, vecs = top_pencil_eigenpairs(scat.u_b, uwe, d)
    sigmas = np.column_stack(
        [_normalize_sign(vecs[:, j], uwe).astype(np.float64) for j in range(d)]
    )
    return sigmas, lams.astype(np.float64)
