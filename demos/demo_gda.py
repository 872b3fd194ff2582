"""Walkthrough: kernel generalized discriminant analysis on ring-shaped data.

Builds a two-class problem that no linear discriminant can solve (a cluster
inside a ring), shows that the linear kernel fails on it, and that an RBF
kernel separates it cleanly. Along the way it prints the quantities the
trainer guarantees: eigenvalue ordering, the eigen-residual of each
discriminant and its orthonormality in the regularized within-class metric.

Run from the repository root:

    python3 demos/demo_gda.py
"""

import numpy as np

from stratseg import (
    KernelSpec,
    LabeledDataset,
    classify_nearest_mean,
    compute_kernel_matrix,
    project,
    scatter_matrices,
    train_gda,
)

rng = np.random.default_rng(7)

# --- 1. a dataset with no linear separation ------------------------------------
# class 0: a blob at the origin; class 1: a ring of radius 4 around it.
n_per = 30
blob = rng.normal(0, 0.6, size=(n_per, 2))
angles = rng.uniform(0, 2 * np.pi, size=n_per)
ring = np.column_stack([4 * np.cos(angles), 4 * np.sin(angles)])
ring += rng.normal(0, 0.3, size=ring.shape)
train = LabeledDataset(np.vstack([blob, ring]), np.repeat([0, 1], n_per))

blob_t = rng.normal(0, 0.6, size=(n_per, 2))
angles_t = rng.uniform(0, 2 * np.pi, size=n_per)
ring_t = np.column_stack([4 * np.cos(angles_t), 4 * np.sin(angles_t)])
ring_t += rng.normal(0, 0.3, size=ring_t.shape)
test_x = np.vstack([blob_t, ring_t])
test_y = np.repeat([0, 1], n_per)

# --- 2. linear kernel: doomed by symmetry ---------------------------------------
for kind, spec in (("linear", KernelSpec("linear")),
                   ("rbf", KernelSpec("rbf", gamma=0.1))):
    model = train_gda(train, spec)
    acc = float(np.mean(classify_nearest_mean(model, test_x) == test_y))
    print(f"{kind:6s} kernel: eta_1 = {model.etas[0]:10.4g}   "
          f"held-out accuracy = {acc:.3f}")

# --- 3. what the trained model guarantees ---------------------------------------
# Re-train a 3-class version so there are two discriminants to inspect.
third = rng.normal((8.0, 8.0), 0.6, size=(n_per, 2))
train3 = LabeledDataset(
    np.vstack([blob, ring, third]), np.repeat([0, 1, 2], n_per)
)
spec = KernelSpec("rbf", gamma=0.1)
model = train_gda(train3, spec)
print(f"\n3-class model: d = {model.n_discriminants}, "
      f"eta = {model.etas[0]:.4g} >= {model.etas[1]:.4g} (nonincreasing)")

# U_b = C C^T and U_w = D D^T / M, with C the weighted class-mean deviations
# and D the class-centred kernel columns; both are applied in factored form
k = compute_kernel_matrix(train3, spec)
m = len(train3.labels)
s = scatter_matrices(k, train3.labels)
deltas, delta0 = s.class_means, k.mean(axis=1)
counts = np.bincount(train3.labels)
c_b = ((deltas - delta0) * np.sqrt(counts / m)[:, None]).T
dev = k - deltas[train3.labels].T
sig = model.sigmas
b_sig = dev @ (dev.T @ sig) / m + model.eps * sig  # (U_w + eps I) sigma

# each (eta, sigma) solves U_b sigma = eta (U_w + eps I) sigma
resid = np.linalg.norm(c_b @ (c_b.T @ sig) - b_sig * model.etas, axis=0)
resid /= np.linalg.norm(c_b @ (c_b.T @ sig), axis=0)
print("relative eigen-residual per discriminant:",
      " ".join(f"{r:.1e}" for r in resid))

# discriminants are orthonormal in the regularized within-class scatter metric
orth = np.abs(sig.T @ b_sig - np.eye(model.n_discriminants)).max()
print(f"max |sigma^T (U_w + eps I) sigma - I| = {orth:.1e}")

# the scatter identity the matrices satisfy by construction
rel = np.linalg.norm(s.u_t - s.u_b - s.u_w, "fro") / np.linalg.norm(s.u_t, "fro")
print(f"||U_t - U_b - U_w||_F / ||U_t||_F = {rel:.2e}")

# --- 4. projections as features --------------------------------------------------
proj = project(model, test_x[: 2 * n_per])
print("\nfirst discriminant, class means of held-out data:")
print(f"  class 0 (blob): {proj[:n_per, 0].mean():9.4f}")
print(f"  class 1 (ring): {proj[n_per:, 0].mean():9.4f}")
acc3 = float(np.mean(classify_nearest_mean(model, test_x) == test_y))
print(f"3-class model accuracy on the original 2-class test set: {acc3:.3f}")
