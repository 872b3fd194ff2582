"""Broadcast kernel reference for the kernel accuracy tests.

Evaluates every kernel entry from its definition: an RBF distance is the
sum of squared coordinate differences, formed through an (N, M, n)
broadcast. `kgda._cross_kernel` gets the same block from one BLAS product
(the Gram expansion); this direct form has no cancellation to bound, at
the price of N * M * n floats of memory, so it serves only on small inputs.
"""

import numpy as np


def reference_kernel(x: np.ndarray, y: np.ndarray, spec) -> np.ndarray:
    """Kernel block k(x_i, y_j) evaluated straight from the definition."""
    if spec.kind == "linear":
        return x @ y.T
    if spec.kind == "polynomial":
        return (x @ y.T + spec.coef) ** spec.degree
    gamma = spec.gamma if spec.gamma is not None else 1.0 / x.shape[1]
    sq = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
    return np.exp(-gamma * sq)
