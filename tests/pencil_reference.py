"""Full-pencil reference solver for the discriminant eigenproblem.

An independent route to the discriminants that `train_gda` computes by
low-rank reduction: it forms the M x M pencil (U_b, U_w + eps I) in
extended precision, estimates its top eigenpairs with LAPACK and polishes
each by Rayleigh-quotient inverse iteration carried out in numpy's
`longdouble`. It costs O(M^3) longdouble work, so it serves only as a test
reference on small problems.
"""

import numpy as np
from scipy.linalg import eigh

from stratseg import compute_kernel_matrix, scatter_matrices
from stratseg.kgda import regularization_epsilon

LD = np.longdouble


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
    problem: U_b and U_w from the longdouble kernel matrix, eps from
    `regularization_epsilon`, sigmas scaled to unit scatter-metric norm with
    their largest-magnitude entry positive.
    """
    k = compute_kernel_matrix(data, spec).astype(LD)
    scat = scatter_matrices(k, data.labels)
    eps = regularization_epsilon(scat.u_w.astype(np.float64))
    uwe = scat.u_w + LD(eps) * np.eye(k.shape[0], dtype=LD)
    lams, vecs = top_pencil_eigenpairs(scat.u_b, uwe, d)
    sigmas = np.column_stack(
        [_normalize_sign(vecs[:, j], uwe).astype(np.float64) for j in range(d)]
    )
    return sigmas, lams.astype(np.float64)
