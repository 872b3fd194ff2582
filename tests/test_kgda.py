import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

import stratseg
from stratseg import kgda
from stratseg import (
    KernelSpec,
    LabeledDataset,
    classify_nearest_mean,
    compute_kernel_matrix,
    load_dataset_csv,
    load_model,
    project,
    save_dataset_csv,
    save_model,
    scatter_matrices,
    train_gda,
)
from stratseg.kgda import (
    _CHUNK_ENTRIES,
    _CSV_BLOCK_CHARS,
    _ExactScatter,
    _cross_kernel,
    _csv_blocks,
    _magnitude,
    _parse_joined,
    _parse_rows,
    read_csv,
    regularization_epsilon,
    write_csv,
)
from stratseg.cli import main
from stratseg.errors import (
    CsvParse,
    DegenerateKernel,
    DimensionMismatch,
    InvalidArgument,
    InvalidDataset,
    InvalidModel,
    StratsegError,
)

from kernel_reference import reference_kernel
from json_documents import json_documents
from pencil_reference import (
    fisher_criterion,
    full_pencil_discriminants,
    kernel_class_means,
    scatter_ld,
)

LD = np.longdouble


def blobs(rng, centers, n_per=8, sigma=0.5):
    """Gaussian blobs, one class per center."""
    xs, ys = [], []
    for label, c in enumerate(centers):
        xs.append(rng.normal(0, sigma, size=(n_per, len(c))) + np.asarray(c))
        ys.extend([label] * n_per)
    return LabeledDataset(np.vstack(xs), np.array(ys))


def uwe_longdouble(model):
    """Between-class scatter and regularized within-class scatter of a model's
    training kernel, recomputed in extended precision."""
    data = LabeledDataset(model.samples, model.labels)
    s = scatter_ld(compute_kernel_matrix(data, model.spec), model.labels)
    uwe = s.u_w + LD(model.eps) * np.eye(len(model.labels), dtype=LD)
    return s.u_b, uwe


def eigen_residuals(model):
    """Relative residual of each (eta, sigma) against the scatter pencil."""
    u_b, uwe = uwe_longdouble(model)
    out = []
    for k in range(model.n_discriminants):
        sig = model.sigmas[:, k].astype(LD)
        lhs = u_b @ sig
        r = lhs - LD(model.etas[k]) * (uwe @ sig)
        out.append(float(np.linalg.norm(r.astype(np.float64)) / np.linalg.norm(lhs.astype(np.float64))))
    return out


# --- kernels -----------------------------------------------------------------


def test_linear_kernel_is_dot_product():
    data = LabeledDataset(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]]), [0, 1, 1])
    k = compute_kernel_matrix(data, KernelSpec("linear"))
    expect = data.samples @ data.samples.T
    assert np.array_equal(k, expect)


def test_polynomial_kernel_hand_value():
    data = LabeledDataset(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 1])
    k = compute_kernel_matrix(data, KernelSpec("polynomial", degree=2, coef=1.0))
    # (u.v + 1)^2: diagonal (1+1)^2 = 4, off-diagonal (0+1)^2 = 1
    assert np.allclose(k, [[4.0, 1.0], [1.0, 4.0]])


def test_rbf_kernel_unit_diagonal_and_default_gamma():
    rng = np.random.default_rng(41)
    data = LabeledDataset(rng.normal(size=(6, 4)), [0, 0, 0, 1, 1, 1])
    k = compute_kernel_matrix(data, KernelSpec("rbf"))
    assert np.array_equal(np.diag(k), np.ones(6))
    # default gamma is 1 / n_features
    u, v = data.samples[0], data.samples[3]
    assert k[0, 3] == pytest.approx(np.exp(-np.sum((u - v) ** 2) / 4.0), rel=1e-14)


def test_kernel_matrix_exactly_symmetric():
    rng = np.random.default_rng(42)
    data = LabeledDataset(rng.normal(size=(10, 3)), [0] * 5 + [1] * 5)
    for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=0.7), KernelSpec("polynomial", degree=3)):
        k = compute_kernel_matrix(data, spec)
        assert np.array_equal(k, k.T)


def test_rbf_kernel_positive_semidefinite():
    rng = np.random.default_rng(43)
    data = LabeledDataset(rng.normal(size=(12, 3)), [0] * 6 + [1] * 6)
    k = compute_kernel_matrix(data, KernelSpec("rbf", gamma=0.5))
    assert np.linalg.eigvalsh(k).min() >= -1e-10


@pytest.mark.parametrize("n", [2, 8, 64])
@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_rbf_gram_expansion_matches_broadcast_reference(n, offset):
    """The Gram expansion cancels ||x||^2 against 2 x.y; centring on the
    training mean keeps that cancellation small far from the origin."""
    rng = np.random.default_rng(67 + n)
    x = rng.normal(size=(40, n)) + offset
    y = rng.normal(size=(30, n)) + offset
    data = LabeledDataset(y, np.arange(30) % 2)
    for gamma in (None, 0.5):
        spec = KernelSpec("rbf", gamma=gamma)
        assert np.abs(_cross_kernel(x, y, spec) - reference_kernel(x, y, spec)).max() <= 1e-12
        k = compute_kernel_matrix(data, spec)
        assert np.abs(k - reference_kernel(y, y, spec)).max() <= 1e-12
        assert np.array_equal(np.diag(k), np.ones(30))
        assert np.array_equal(k, k.T)


def mirrored_kernel(x, spec):
    """K without the copy rule: the upper triangle of the kernel block
    mirrored, no -0.0, and under RBF a unit diagonal."""
    k = _cross_kernel(x, x, spec)
    k = np.triu(k) + np.triu(k, 1).T
    if spec.kind == "rbf":
        np.fill_diagonal(k, 1.0)
    return k


@pytest.mark.parametrize(
    "spec", [KernelSpec("linear"), KernelSpec("rbf"), KernelSpec("polynomial", degree=3)],
    ids=lambda s: s.kind,
)
def test_kernel_copies_take_their_first_samples_row_and_column(spec):
    """Copies, shuffled and not adjacent, get bit-equal rows and columns of K,
    and K of distinct rows is the mirrored kernel block, bit for bit."""
    rng = np.random.default_rng(71)
    base = rng.normal(size=(9, 3)) * 3 + 50.0
    k = compute_kernel_matrix(LabeledDataset(base, np.arange(9) % 2), spec)
    assert k.tobytes() == mirrored_kernel(base, spec).tobytes()
    which = rng.permutation(np.r_[np.arange(9), [4, 7, 4, 0]])
    x = base[which]
    k = compute_kernel_matrix(LabeledDataset(x, np.arange(13) % 2), spec)
    first = np.array([np.flatnonzero(which == w)[0] for w in which])
    assert k.tobytes() == mirrored_kernel(x, spec)[first][:, first].tobytes()
    for i in range(13):
        same = which == which[i]
        assert np.all(k[same] == k[i]) and np.all(k[:, same] == k[:, [i]])


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("sigmoid")
    with pytest.raises(ValueError):
        KernelSpec("rbf", gamma=-1.0)
    with pytest.raises(ValueError):
        KernelSpec("polynomial", degree=0)
    for degree in (2.5, True, "2", float("inf")):
        with pytest.raises(InvalidArgument):
            KernelSpec("polynomial", degree=degree)
    # numpy takes gamma, degree and coef as float64: an int beyond its range
    # is an error here, not an OverflowError in project
    for kwargs in ({"gamma": 10**400}, {"degree": 10**400}, {"coef": -(10**400)}):
        with pytest.raises(InvalidArgument):
            KernelSpec("polynomial", **kwargs)
    spec = KernelSpec("polynomial", degree=3.0)
    assert spec.degree == 3 and isinstance(spec.degree, int)
    for field in ("gamma", "coef"):
        for value in ("x", "1", True, [1.0]):
            with pytest.raises(InvalidArgument, match=f"{field} must be a number"):
                KernelSpec("polynomial", **{field: value})


# --- kernel means and scatter -------------------------------------------------


def test_kernel_class_means_hand_computed():
    k = np.array([[1.0, 2.0, 3.0], [2.0, 5.0, 6.0], [3.0, 6.0, 9.0]])
    s = scatter_matrices(k, [0, 0, 1])
    assert np.allclose(s.class_means[0], [1.5, 3.5, 4.5])  # mean of columns 0, 1
    assert np.allclose(s.class_means[1], [3.0, 6.0, 9.0])
    # the global mean [2, 13/3, 6] enters through U_t: the columns minus it,
    # [[-1, 0, 1], [-7/3, 2/3, 5/3], [-3, 0, 3]], times their transpose over 3
    assert np.allclose(s.u_t, [[2 / 3, 4 / 3, 2], [4 / 3, 26 / 9, 4], [2, 4, 6]])


def test_class_means_weighted_average_is_global_mean():
    rng = np.random.default_rng(44)
    labels = np.array([0] * 4 + [1] * 7 + [2] * 3)
    data = LabeledDataset(rng.normal(size=(14, 3)), labels)
    k = compute_kernel_matrix(data, KernelSpec("rbf"))
    deltas = scatter_matrices(k, labels).class_means
    counts = np.array([4, 7, 3]) / 14.0
    assert np.allclose(counts @ deltas, k.mean(axis=1), atol=1e-12)


@pytest.mark.parametrize("kind", ["linear", "rbf", "polynomial"])
def test_longdouble_reference_scatter_agrees_with_the_library(kind):
    """The tests' longdouble scatter of a float64 K and the library's float64
    one agree to 1e-12 of each matrix's largest entry, so the two formulas
    cannot drift apart."""
    rng = np.random.default_rng(44)
    data = blobs(rng, [(0, 0, 0), (3, 1, 0), (1, 4, 2)], n_per=9)
    k = compute_kernel_matrix(data, KernelSpec(kind))
    got, want = scatter_matrices(k, data.labels), scatter_ld(k, data.labels)
    for name in ("u_b", "u_w", "u_t", "class_means"):
        a, b = getattr(got, name), getattr(want, name).astype(np.float64)
        assert a.dtype == np.float64
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


def test_scatter_total_is_between_plus_within():
    rng = np.random.default_rng(45)
    for spec in (KernelSpec("linear"), KernelSpec("rbf"), KernelSpec("polynomial")):
        data = blobs(rng, [(0, 0), (3, 1), (1, 4)], n_per=6)
        k = compute_kernel_matrix(data, spec)
        s = scatter_matrices(k, data.labels)
        scale = max(np.abs(s.u_t).max(), 1.0)
        assert np.abs(s.u_b + s.u_w - s.u_t).max() <= 1e-10 * scale


def test_scatter_matrices_psd_and_symmetric():
    rng = np.random.default_rng(46)
    data = blobs(rng, [(0, 0, 0), (2, 2, 0)], n_per=7)
    k = compute_kernel_matrix(data, KernelSpec("rbf", gamma=0.3))
    s = scatter_matrices(k, data.labels)
    for u in (s.u_b, s.u_w, s.u_t):
        assert np.array_equal(u, u.T)
        evs = np.linalg.eigvalsh(u)
        assert evs.min() >= -1e-8 * max(np.abs(evs).max(), 1e-30)


def test_within_scatter_zero_for_duplicated_samples():
    x = np.array([[1.0, 2.0]] * 3 + [[4.0, 0.0]] * 3)
    data = LabeledDataset(x, [0, 0, 0, 1, 1, 1])
    k = compute_kernel_matrix(data, KernelSpec("linear"))
    s = scatter_matrices(k, data.labels)
    assert np.abs(s.u_w).max() <= 1e-12
    assert np.abs(s.u_b).max() > 0


def test_between_scatter_rank_at_most_classes_minus_one():
    rng = np.random.default_rng(47)
    data = blobs(rng, [(0, 0), (4, 0), (0, 4)], n_per=8)
    k = compute_kernel_matrix(data, KernelSpec("rbf"))
    s = scatter_matrices(k, data.labels)
    evs = np.sort(np.linalg.eigvalsh(s.u_b))[::-1]
    assert evs[2] <= 1e-10 * evs[0]  # third eigenvalue vanishes: rank <= 2


def test_fisher_criterion_scale_invariant_and_matches_eigenvalue():
    rng = np.random.default_rng(48)
    data = blobs(rng, [(0, 0), (5, 0)], n_per=10, sigma=0.6)
    k = compute_kernel_matrix(data, KernelSpec("rbf", gamma=0.2))
    s = scatter_matrices(k, data.labels)
    model = train_gda(data, KernelSpec("rbf", gamma=0.2))
    sig = model.sigmas[:, 0]
    f1 = fisher_criterion(sig, s, eps=model.eps)
    assert f1 == pytest.approx(model.etas[0], rel=1e-6)
    # at the eigendirection the denominator is tiny, so only modest relative
    # accuracy survives the cancellation; a generic direction is exact
    assert fisher_criterion(3.0 * sig, s, eps=model.eps) == pytest.approx(f1, rel=1e-6)
    v = rng.normal(size=len(sig))
    assert fisher_criterion(5.0 * v, s, eps=model.eps) == pytest.approx(
        fisher_criterion(v, s, eps=model.eps), rel=1e-10
    )


def test_fisher_criterion_maximal_at_first_discriminant():
    rng = np.random.default_rng(49)
    data = blobs(rng, [(0, 0), (4, 1), (1, 4)], n_per=7)
    k = compute_kernel_matrix(data, KernelSpec("rbf"))
    s = scatter_matrices(k, data.labels)
    model = train_gda(data, KernelSpec("rbf"))
    best = fisher_criterion(model.sigmas[:, 0], s, eps=model.eps)
    for _ in range(50):
        v = rng.normal(size=k.shape[0])
        assert fisher_criterion(v, s, eps=model.eps) <= best * (1 + 1e-9)


# --- training ----------------------------------------------------------------


def test_train_two_classes_single_discriminant_separates():
    rng = np.random.default_rng(50)
    data = blobs(rng, [(0, 0), (6, 0)], n_per=10, sigma=0.5)
    model = train_gda(data, KernelSpec("linear"))
    assert model.n_discriminants == 1
    assert model.achieved_all
    proj = project(model, data.samples)[:, 0]
    a, b = proj[data.labels == 0], proj[data.labels == 1]
    assert max(a.min(), b.min()) > min(a.max(), b.max()) or a.max() < b.min() or b.max() < a.min()


def test_train_eigen_residuals_small():
    rng = np.random.default_rng(51)
    for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=0.4), KernelSpec("polynomial")):
        data = blobs(rng, [(0, 0, 0), (3, 0, 1), (0, 3, -1)], n_per=8)
        model = train_gda(data, spec)
        assert model.n_discriminants == 2
        for r in eigen_residuals(model):
            assert r <= 1e-8


def test_train_scatter_metric_orthonormal_discriminants():
    rng = np.random.default_rng(52)
    data = blobs(rng, [(0, 0), (3, 0), (0, 3), (3, 3)], n_per=6)
    model = train_gda(data, KernelSpec("rbf", gamma=0.5))
    _, uwe = uwe_longdouble(model)
    gram = (model.sigmas.T.astype(LD) @ uwe @ model.sigmas.astype(LD)).astype(np.float64)
    assert np.abs(gram - np.eye(model.n_discriminants)).max() <= 1e-8


def test_train_eigenvalues_nonincreasing():
    rng = np.random.default_rng(53)
    data = blobs(rng, [(0, 0), (4, 0), (0, 4), (4, 4)], n_per=6)
    model = train_gda(data, KernelSpec("rbf"))
    assert np.all(np.diff(model.etas) <= 1e-9 * np.abs(model.etas[:-1]))


def test_train_caps_discriminants_at_rank():
    rng = np.random.default_rng(54)
    data = blobs(rng, [(0, 0), (5, 0)], n_per=8)
    model = train_gda(data, KernelSpec("linear"), d=5)
    assert model.n_discriminants == 1
    assert not model.achieved_all


SPECS = [KernelSpec("linear"), KernelSpec("rbf"), KernelSpec("rbf", gamma=0.3),
         KernelSpec("polynomial", degree=2), KernelSpec("polynomial", degree=3, coef=0.5)]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.gamma}-{s.degree}")
def test_identical_classes_give_no_discriminant(spec):
    """Classes that are copies of each other have equal kernel means up to
    rounding of K, so U_b has rank 0 under every kernel."""
    base = np.random.default_rng(56).normal(size=(6, 3))
    data = LabeledDataset(np.vstack([base] * 3), np.repeat([0, 1, 2], 6))
    for d in (None, 1):
        model = train_gda(data, spec, d)
        assert model.sigmas.shape == (18, 0) and model.etas.shape == (0,)
        assert model.class_means.shape == (3, 0)
        assert not model.achieved_all
    assert load_model(save_model(model)).n_discriminants == 0


def test_copies_of_a_tight_group_far_from_the_mean_give_no_discriminant():
    """Under RBF the Gram expansion rounds the distances inside a tight group
    far from the mean by about u gamma ||x - mean||^2, differently for a row
    and its copy; copies take their first sample's row and column of K, so
    copied classes still have equal kernel means."""
    for seed in range(20):
        for far in (1e2, 1e4, 1e6):
            rng = np.random.default_rng(seed)
            n, size, copies = rng.integers(1, 5), rng.integers(1, 7), rng.integers(2, 4)
            towards = rng.normal(size=n)
            group = towards / np.linalg.norm(towards) * far + rng.normal(size=(size, n))
            base = np.vstack([group, -group, rng.normal(size=(2, n))])
            data = LabeledDataset(np.vstack([base] * copies), np.repeat(np.arange(copies), len(base)))
            for gamma in (1.0 / n, 1.0):
                model = train_gda(data, KernelSpec("rbf", gamma=gamma))
                assert model.n_discriminants == 0, (seed, far, gamma)


def test_rank_floor_keeps_a_small_feature_beside_a_large_constant_one():
    """The linear kernel is not centred: a constant feature of 2e5 puts max|K|
    near 4e10, and the unit-scale feature that separates the classes still
    gives its discriminant."""
    rng = np.random.default_rng(57)
    y = np.repeat([0, 1], 8)
    x = np.column_stack([np.full(16, 2e5), y + rng.normal(0, 0.1, 16)])
    model = train_gda(LabeledDataset(x, y), KernelSpec("linear"))
    assert model.n_discriminants == 1 and model.achieved_all
    assert np.all(classify_nearest_mean(model, x) == y)


def test_train_single_class_rejected():
    data = LabeledDataset(np.random.default_rng(55).normal(size=(6, 2)), [3] * 6)
    with pytest.raises(InvalidDataset):
        train_gda(data, KernelSpec("linear"))


def test_train_d_must_be_a_whole_number_at_least_1():
    data = blobs(np.random.default_rng(55), [(0, 0), (4, 0), (0, 4)], n_per=4)
    for d in (0, -1, 1.5, True, "1", [2]):
        with pytest.raises(InvalidArgument, match="d must"):
            train_gda(data, KernelSpec("linear"), d=d)
    assert train_gda(data, KernelSpec("linear"), d=2.0).n_discriminants == 2


def test_train_zero_kernel_rejected():
    data = LabeledDataset(np.zeros((6, 2)), [0, 0, 0, 1, 1, 1])
    with pytest.raises(DegenerateKernel):
        train_gda(data, KernelSpec("linear"))


def test_train_overflowing_kernel_rejected():
    x = np.array([[1e200, 0.0], [2e200, 1.0], [0.0, 1e200], [1.0, 2e200]])
    data = LabeledDataset(x, [0, 0, 1, 1])
    with np.errstate(over="ignore"), pytest.raises(DegenerateKernel):
        train_gda(data, KernelSpec("linear"))


NINE_ROWS = np.array(
    [[0, 0], [0.5, 0.2], [0.1, 0.6], [4, 4], [4.4, 3.8], [3.9, 4.3], [0, 5], [0.3, 4.6], [-0.2, 5.2]]
)


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would be a second stderr line
@pytest.mark.parametrize(
    "scale, spec",
    [
        (1e78, KernelSpec("linear")),  # U_w overflows
        (1e120, KernelSpec("linear")),  # the rank floor overflows
        (1e150, KernelSpec("linear")),  # |K| near 1e300: a split at 2**(e + tau) would overflow
        (1e25, KernelSpec("polynomial", degree=3)),  # U_b overflows
        (1.0, KernelSpec("polynomial", degree=1, coef=1e300)),  # the rank floor overflows
    ],
)
def test_train_huge_finite_kernel_is_degenerate(scale, spec):
    data = LabeledDataset(NINE_ROWS * scale, np.repeat([0, 1, 2], 3))
    with pytest.raises(DegenerateKernel, match="overflows float64"):
        train_gda(data, spec)


@pytest.mark.filterwarnings("error")
def test_train_huge_kernel_of_one_sample_classes_is_degenerate():
    """U_w = 0 leaves B = 1e-12 I, so C^T B^-1 C ~ |K|^2 / 1e-12 overflows
    although K, U_w and U_b are finite."""
    x = np.array([[1e75, 0.0], [0.0, 1e75], [1e75, 1e75]])
    with pytest.raises(DegenerateKernel, match="overflows float64"):
        train_gda(LabeledDataset(x, [0, 1, 2]), KernelSpec("linear"))


def split_scatter(k, labels):
    _, inverse = np.unique(labels, return_inverse=True)
    return _ExactScatter(k, _magnitude(k, axis=0).T, inverse, np.bincount(inverse)), inverse


def fraction_means(k, groups):
    """Exact mean of each row of k over each index group, as Fractions."""
    rows = [[Fraction(v) for v in row] for row in k.tolist()]
    return [[sum(row[j] for j in g) / len(g) for g in groups] for row in rows]


@pytest.mark.parametrize("seed", range(4))
def test_split_class_means_exact_to_one_rounding_of_the_remainder(seed):
    """K @ E is exact in the split's leading part, so of each class mean, as
    the pair hi + lo, only the float64 sum of the remainder (entries below
    2**(e + tau - 53), 2**e bounding the row) and the division of lo round:
    the pair is the exact mean to within n_c u 2**(e + tau - 53) + 2 u |lo|,
    u = 2**-53, and a class of one sample gets its kernel entry exactly."""
    rng = np.random.default_rng(seed)
    m = 12
    labels = rng.permutation(np.repeat([0, 1, 2, 3], [1, 1, 4, 6]))
    a = rng.normal(size=(m, m)) * 10.0 ** rng.integers(-30, 31, size=(m, m))
    k = np.triu(a) + np.triu(a, 1).T  # exactly symmetric, mixed magnitudes
    exact, inverse = split_scatter(k, labels)
    groups = [np.flatnonzero(inverse == c) for c in range(4)] + [np.arange(m)]
    want = fraction_means(k, groups)
    hi, lo = exact.means  # class means, then the global mean
    u = 2.0**-53
    for i in range(m):
        unit = 2.0 ** (np.frexp(np.abs(k[i]).max())[1] + exact.tau - 53)
        for c, g in enumerate(groups):
            err = abs(Fraction(hi[i, c]) + Fraction(lo[i, c]) - want[i][c])
            assert err <= Fraction(len(g) * u * unit + 2 * u * abs(lo[i, c]))
            if len(g) == 1:
                assert err == 0


def fraction_residual(k, labels, eps, y):
    """C - D (D^T y) / M - eps y in exact arithmetic, C = delta_c - delta_0,
    with the norms of C, D and y for its scale."""
    m = len(labels)
    z = labels.max() + 1
    means = fraction_means(k, [np.flatnonzero(labels == c) for c in range(z)] + [np.arange(m)])
    c = [[means[i][j] - means[i][z] for j in range(z)] for i in range(m)]
    d = [[Fraction(k[i, j]) - means[i][labels[j]] for j in range(m)] for i in range(m)]
    yf = [[Fraction(v) for v in row] for row in y.tolist()]
    p = [[sum(d[i][j] * yf[i][t] for i in range(m)) for t in range(z)] for j in range(m)]
    r = [
        [c[i][t] - sum(d[i][j] * p[j][t] for j in range(m)) / m - Fraction(eps) * yf[i][t]
         for t in range(z)]
        for i in range(m)
    ]
    norm = lambda a: float(np.linalg.norm(np.array(a, dtype=float)))
    return r, norm(c) + norm(d) ** 2 * np.linalg.norm(y) / m


@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("kind", ["linear", "rbf", "polynomial"])
def test_refinement_residual_matches_exact_fractions(kind, offset):
    """The residual train_gda refines with, taken at the float64 solve of
    B y = C, agrees with the exact one to 2**-60 of |C| + |D|^2 |y| / M.
    An offset far from the origin makes the linear and polynomial K nearly
    class-constant, |K| >> |D|, where a residual built from K rather than
    from D would lose those bits."""
    rng = np.random.default_rng(11)
    labels = np.repeat([0, 1, 2], [1, 4, 7])
    m = len(labels)
    x = rng.normal(size=(m, 2)) + labels[:, None] + offset
    k = compute_kernel_matrix(LabeledDataset(x, labels), KernelSpec(kind))
    exact, _ = split_scatter(k, labels)
    b = exact.dev @ exact.dev.T / m
    eps = regularization_epsilon(b)
    b.flat[:: m + 1] += eps
    y = np.linalg.solve(b, exact.c[0])
    r = exact.residual(y, eps)
    want, scale = fraction_residual(k, labels, eps, y)
    err = max(abs(Fraction(r[i, t]) - want[i][t]) for i in range(m) for t in range(3))
    assert err <= 2.0**-60 * scale


def test_low_rank_and_full_pencil_routes_agree():
    rng = np.random.default_rng(56)
    data = blobs(rng, [(0, 0), (4, 1), (1, 4)], n_per=8, sigma=0.6)
    spec = KernelSpec("rbf", gamma=0.3)
    model = train_gda(data, spec)
    ref_sigmas, ref_etas = full_pencil_discriminants(data, spec, model.n_discriminants)
    assert np.allclose(model.etas, ref_etas, rtol=1e-8)
    angles = scipy.linalg.subspace_angles(model.sigmas, ref_sigmas)
    assert angles.max() < 1e-6


def factored_errors(model):
    """Worst normwise backward error of the eigenpairs and worst deviation of
    sigma^T B sigma from the identity, B = U_w + eps I, in float64.

    Both scatter matrices are applied in factored form, U_b s = C (C^T s) and
    U_w s = D (D^T s) / M, so no M x M scatter matrix is formed.
    """
    data = LabeledDataset(model.samples, model.labels)
    k = compute_kernel_matrix(data, model.spec)
    m = k.shape[0]
    deltas, delta0 = kernel_class_means(k, model.labels)
    counts = np.array([np.sum(model.labels == c) for c in model.classes])
    c_b = ((deltas - delta0) * np.sqrt(counts / m)[:, None]).T
    dev = k - deltas[np.searchsorted(model.classes, model.labels)].T
    sig = model.sigmas
    ub_sig = c_b @ (c_b.T @ sig)
    b_sig = dev @ (dev.T @ sig) / m + model.eps * sig
    nb = np.linalg.norm(c_b, 2) ** 2
    nw = np.linalg.norm(dev, 2) ** 2 / m + model.eps
    resid = max(
        float(
            np.linalg.norm(ub_sig[:, j] - model.etas[j] * b_sig[:, j])
            / ((nb + abs(model.etas[j]) * nw) * np.linalg.norm(sig[:, j]))
        )
        for j in range(model.n_discriminants)
    )
    orth = float(np.abs(sig.T @ b_sig - np.eye(model.n_discriminants)).max())
    return resid, orth


@pytest.mark.parametrize(
    "m, n, kind",
    [(500, 64, "rbf"), (500, 4, "linear"), (1000, 8, "rbf")],
)
def test_train_large_m_residual_and_orthonormality(m, n, kind):
    z = 5
    rng = np.random.default_rng(m + n)
    centers = rng.normal(0, 2.0, size=(z, n))
    data = blobs(rng, centers, n_per=m // z, sigma=1.0)
    model = train_gda(data, KernelSpec(kind))
    assert model.n_discriminants == z - 1
    resid, orth = factored_errors(model)
    assert resid <= 1e-8
    assert orth <= 1e-8


def stress_case(name):
    """(dataset, kernel) for one hard case of the trainer's 1e-8 guarantees."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "duplicated samples":  # every sample four times: U_w rank-deficient
        data = blobs(rng, rng.normal(0, 2.0, size=(3, 4)), n_per=10)
        data = LabeledDataset(np.repeat(data.samples, 4, axis=0), np.repeat(data.labels, 4))
        return data, KernelSpec("rbf")
    if name == "linear n=2 M=500":
        return blobs(rng, rng.normal(0, 2.0, size=(5, 2)), n_per=100), KernelSpec("linear")
    if name.startswith("rbf gamma="):
        gamma = float(name.split("=")[1])
        return blobs(rng, rng.normal(0, 2.0, size=(4, 3)), n_per=40), KernelSpec("rbf", gamma=gamma)
    if name == "imbalance 250:5":
        x = np.vstack([rng.normal(0, 1.0, size=(250, 3)), rng.normal(1.5, 1.0, size=(5, 3))])
        return LabeledDataset(x, np.repeat([0, 1], [250, 5])), KernelSpec("rbf")
    if name == "Z=10":
        return blobs(rng, rng.normal(0, 2.0, size=(10, 4)), n_per=20), KernelSpec("rbf")
    assert name == "polynomial degree 3 n=2"
    return blobs(rng, rng.normal(0, 2.0, size=(4, 2)), n_per=50), KernelSpec("polynomial", degree=3)


@pytest.mark.parametrize(
    "name",
    [
        "duplicated samples",
        "linear n=2 M=500",
        "rbf gamma=1e-4",
        "rbf gamma=1e3",
        "imbalance 250:5",
        "Z=10",
        "polynomial degree 3 n=2",
    ],
)
def test_train_stress_residual_and_orthonormality(name):
    data, spec = stress_case(name)
    model = train_gda(data, spec)
    assert model.n_discriminants >= 1
    resid, orth = factored_errors(model)
    assert resid <= 1e-8
    assert orth <= 1e-8


def test_linear_kernel_matches_classical_lda_direction():
    """With a linear kernel the projection sigma^T mu_u is an affine function
    of u, so it must correlate perfectly with the classical LDA projection."""
    rng = np.random.default_rng(57)
    data = blobs(rng, [(0, 0, 0), (4, 0, 0)], n_per=12, sigma=0.7)
    model = train_gda(data, KernelSpec("linear"))
    x, y = data.samples, data.labels
    mu = [x[y == c].mean(axis=0) for c in (0, 1)]
    sw = sum(
        (x[y == c] - mu[c]).T @ (x[y == c] - mu[c]) for c in (0, 1)
    ) / len(y)
    w = np.linalg.solve(sw + 1e-10 * np.eye(3), mu[1] - mu[0])
    ours = project(model, x)[:, 0]
    theirs = x @ w
    r = np.corrcoef(ours, theirs)[0, 1]
    assert abs(r) > 0.999


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, "a", "1.5", b"1.5", None, 10**400],
    ids=["nan", "inf", "-inf", "str", "numeric str", "bytes", "None", "10**400"],
)
def test_non_finite_features_rejected(bad):
    """Non-finite samples, and samples that are not numbers float64 can hold:
    a string, numeric or not, bytes, None, an int beyond its range."""
    x = [[0.0, 1.0], [1.0, 0.0], [2.0, bad], [3.0, 1.0]]
    with pytest.raises(InvalidDataset):
        LabeledDataset(x, [0, 0, 1, 1])
    with pytest.raises(InvalidDataset):
        LabeledDataset([[bad], [1.0]], [0, 1])
    rng = np.random.default_rng(67)
    model = train_gda(blobs(rng, [(0, 0), (3, 3)], n_per=6), KernelSpec("rbf"))
    with pytest.raises(InvalidDataset):
        project(model, [0.5, bad])
    with pytest.raises(InvalidDataset):
        classify_nearest_mean(model, x)


THREADS_SCRIPT = """
import sys
import numpy as np
from stratseg import KernelSpec, LabeledDataset, classify_nearest_mean, compute_kernel_matrix, train_gda
out = {}
for m in (160, 600):
    rng = np.random.default_rng(m)
    centres = rng.normal(0.0, 3.0, size=(5, 8))
    labels = np.arange(m) % 5
    data = LabeledDataset(centres[labels] + rng.normal(size=(m, 8)), labels)
    held_out = centres[rng.integers(0, 5, size=2000)] + rng.normal(size=(2000, 8))
    for kind in ("linear", "rbf", "polynomial"):
        spec = KernelSpec(kind)
        model = train_gda(data, spec)
        out[f"{kind}{m}_k"] = compute_kernel_matrix(data, spec)
        out[f"{kind}{m}_predictions"] = classify_nearest_mean(model, held_out)
        out[f"{kind}{m}_sigmas"] = model.sigmas
        out[f"{kind}{m}_etas"] = model.etas
        out[f"{kind}{m}_class_means"] = model.class_means
np.savez(sys.argv[1], **out)
"""


def test_models_trained_with_one_and_two_blas_threads_agree_to_the_stated_bound(tmp_path):
    """README's contract across BLAS thread counts, which change the
    summation order of the LU and the products: K and held-out predictions
    are equal; sigma agrees to 1e-9 of its largest entry, eta and the class
    means to 1e-11 (measured at M = 160 and 600: at most 4.2e-11, under the
    linear kernel, and 3.9e-13). The bytes may differ, so none are compared."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stratseg.__file__)))
    runs = []
    for threads in ("1", "2"):  # set before numpy is imported
        path = tmp_path / f"threads{threads}.npz"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", THREADS_SCRIPT, str(path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(np.load(path))
    one, two = runs
    for key in one.files:
        a, b = one[key], two[key]
        if key.endswith(("_k", "_predictions")):
            assert np.array_equal(a, b), key
        else:
            bound = 1e-9 if key.endswith("_sigmas") else 1e-11
            assert np.abs(a - b).max() <= bound * np.abs(a).max(), key


# --- projection and classification ---------------------------------------------


def test_project_training_samples_match_kernel_rows():
    rng = np.random.default_rng(58)
    data = blobs(rng, [(0, 0), (3, 3)], n_per=6)
    spec = KernelSpec("rbf", gamma=0.4)
    model = train_gda(data, spec)
    k = compute_kernel_matrix(data, spec)
    assert np.allclose(project(model, data.samples), k @ model.sigmas, atol=1e-10)


def test_project_single_sample_matches_batch():
    rng = np.random.default_rng(59)
    data = blobs(rng, [(0, 0), (3, 3)], n_per=6)
    model = train_gda(data, KernelSpec("polynomial"))
    u = rng.normal(size=2)
    single = project(model, u)
    batch = project(model, u[None, :])
    assert single.shape == (1,)
    assert np.array_equal(single, batch[0])


def test_project_dimension_mismatch():
    rng = np.random.default_rng(60)
    data = blobs(rng, [(0, 0), (3, 3)], n_per=6)
    model = train_gda(data, KernelSpec("linear"))
    for shape in [(5,), (), (2, 3, 2)]:  # wrong width, a 0-d and a 3-D input
        with pytest.raises(DimensionMismatch):
            project(model, np.zeros(shape))


def test_project_overflow_raises_degenerate_kernel():
    rng = np.random.default_rng(60)
    data = blobs(rng, [(0, 0), (3, 3)], n_per=6)
    model = train_gda(data, KernelSpec("polynomial"))
    with pytest.raises(DegenerateKernel):
        project(model, np.array([[1e160, 1e160], [0.0, 1.0]]))
    far = train_gda(data, KernelSpec("rbf"))  # infinite distance: k = 0
    assert np.array_equal(project(far, np.array([1e160, -1e160])), np.zeros(1))


def test_project_memory_bounded():
    """Projection works in row chunks: the (N, M) kernel block never exists.
    Classification too: its (N, Z, d) difference tensor, 1.8 MiB here and
    taken twice by the norm, never exists whole either."""
    rng = np.random.default_rng(68)
    centres = rng.normal(0, 3, size=(4, 8))
    labels = np.arange(300) % 4
    model = train_gda(
        LabeledDataset(centres[labels] + rng.normal(size=(300, 8)), labels), KernelSpec("rbf")
    )
    batch = rng.normal(0, 3, size=(20000, 8))
    outs, peaks = [], []
    for run in (project, classify_nearest_mean):
        tracemalloc.start()
        try:
            outs.append(run(model, batch))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    out, pred = outs
    assert out.shape == (20000, 3)
    assert peaks[0] < 8 * 2**20
    assert peaks[1] < peaks[0] + 2**20
    whole = np.linalg.norm(out[:, None, :] - model.class_means[None, :, :], axis=2)
    assert np.array_equal(pred, model.classes[np.argmin(whole, axis=1)])


@pytest.mark.parametrize("kind", ["linear", "rbf", "polynomial"])
def test_project_chunk_boundaries_match_reference(kind):
    rng = np.random.default_rng(69)
    data = blobs(rng, [(0, 0, 0), (3, 3, 0), (0, 3, 3)], n_per=8)
    model = train_gda(data, KernelSpec(kind))
    step = _CHUNK_ENTRIES // len(data.samples)
    big = rng.normal(1.5, 2.0, size=(3 * step + 5, 3))
    for n in (0, 1, step - 1, step, step + 1, 3 * step + 5):
        u = big[:n]
        got = project(model, u)
        want = reference_kernel(u, model.samples, model.spec) @ model.sigmas
        assert got.shape == want.shape == (n, model.n_discriminants)
        assert np.abs(got - want).max(initial=0) <= 1e-12 * np.abs(want).max(initial=0)


def test_class_means_are_projected_training_means():
    rng = np.random.default_rng(61)
    data = blobs(rng, [(0, 0), (4, 0), (0, 4)], n_per=7)
    model = train_gda(data, KernelSpec("rbf"))
    proj = project(model, data.samples)
    for i, c in enumerate(model.classes):
        want = proj[data.labels == c].mean(axis=0)
        assert np.abs(model.class_means[i] - want).max() <= 1e-12 * np.abs(want).max()


def test_classify_recovers_well_separated_classes():
    rng = np.random.default_rng(62)
    data = blobs(rng, [(0, 0), (6, 0), (0, 6)], n_per=10, sigma=0.4)
    model = train_gda(data, KernelSpec("rbf", gamma=0.2))
    pred = classify_nearest_mean(model, data.samples)
    assert np.array_equal(pred, data.labels)
    assert classify_nearest_mean(model, np.array([0.1, -0.1])) == 0


def test_classify_tie_prefers_smallest_label():
    rng = np.random.default_rng(63)
    data = blobs(rng, [(0, 0), (6, 0)], n_per=6, sigma=0.4)
    model = train_gda(data, KernelSpec("linear"))
    tied = dataclasses.replace(
        model, class_means=np.zeros_like(model.class_means)
    )
    assert classify_nearest_mean(tied, np.array([1.0, 1.0])) == 0


def test_classify_kernel_scale_invariance():
    """Scaling every sample by c scales a linear kernel uniformly; nearest-mean
    decisions in discriminant space are unchanged."""
    rng = np.random.default_rng(64)
    data = blobs(rng, [(0, 0), (5, 1)], n_per=8)
    queries = rng.normal(2.5, 2.0, size=(30, 2))
    base = classify_nearest_mean(train_gda(data, KernelSpec("linear")), queries)
    scaled_data = LabeledDataset(data.samples * 3.0, data.labels)
    scaled = classify_nearest_mean(
        train_gda(scaled_data, KernelSpec("linear")), queries * 3.0
    )
    assert np.array_equal(base, scaled)


# --- serialization --------------------------------------------------------------


def test_dataset_csv_roundtrip():
    rng = np.random.default_rng(65)
    data = blobs(rng, [(0, 0, 1), (2, -3, 0.5)], n_per=5)
    text = save_dataset_csv(data)
    back = load_dataset_csv(text)
    assert np.array_equal(back.samples, data.samples)
    assert np.array_equal(back.labels, data.labels)
    # with header
    text_h = save_dataset_csv(data, header=True)
    assert text_h.splitlines()[0] == "f0,f1,f2,label"
    back_h = load_dataset_csv(text_h, header=True)
    assert np.array_equal(back_h.samples, data.samples)


@pytest.mark.parametrize(
    "text",
    ["", "1.0\n", "1.0,2.0,0\n1.0,0\n", "a,b,0\n"],
)
def test_dataset_csv_errors(text):
    with pytest.raises(CsvParse):
        load_dataset_csv(text)


def _csv_outcome(parse):
    try:
        data = parse()
    except Exception as exc:
        return type(exc), str(exc)
    return data.samples.shape, data.samples.tolist(), data.labels.tolist()


# CSV blocks of 1 and 8 characters cut the text after nearly every row
SMALL_CSV_BLOCKS = (1, 8)


def _at_block_sizes(call, sizes=(_CSV_BLOCK_CHARS, *SMALL_CSV_BLOCKS)):
    """call() with the CSV block size set to each of `sizes` characters,
    required to give the same at all of them."""
    outcomes = []
    for chars in sizes:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kgda, "_CSV_BLOCK_CHARS", chars)
            outcomes.append(call())
    assert all(o == outcomes[0] for o in outcomes), dict(zip(sizes, outcomes))
    return outcomes[0]


def _data_lines(text, header):
    """All data lines of the text: the blocks of `_csv_blocks`, flattened."""
    return [line for block in _csv_blocks(text, header) for line in block]


def assert_csv_paths_agree(text, header=False):
    """load_dataset_csv gives what the row loop alone gives: the same arrays,
    or the same exception with the same message, at the real block size and
    at block sizes of a few characters."""
    fast = _at_block_sizes(lambda: _csv_outcome(lambda: load_dataset_csv(text, header)))
    loop = _csv_outcome(lambda: LabeledDataset(*_parse_rows(_data_lines(text, header))))
    assert fast == loop
    return fast


_PAD = st.sampled_from(["", " ", "\t"])
_FEATURE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(str.__add__, _PAD, st.sampled_from(["1_0", "-0.5", "1e3", "-inf", "7"])),
)
_LABEL = st.builds(
    lambda a, v, b: a + str(v) + b, _PAD, st.integers(-3, 3), _PAD
)
_JUNK = st.one_of(st.sampled_from(["", "1.0", "x", "nan", "1e999"]),
                  st.text(alphabet=" \t0123456789.-+e_ainfx", max_size=6))


@st.composite
def csv_texts(draw):
    """Well-formed 'f1,...,fn,label' rows, sometimes with one bad cell or
    one ragged row, joined by one of several line endings."""
    n = draw(st.integers(1, 3))
    rows = [[draw(_FEATURE) for _ in range(n)] + [draw(_LABEL)]
            for _ in range(draw(st.integers(0, 6)))]
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, n))] = draw(_JUNK)
    if rows and draw(st.booleans()):  # one row a cell longer or shorter
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row.append("0")
        else:
            row.pop()
    sep = draw(st.sampled_from(["\n", "\r\n", "\n \n"]))
    return sep.join(",".join(r) for r in rows)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=csv_texts(), header=st.booleans())
def test_dataset_csv_one_pass_matches_row_loop(text, header):
    assert_csv_paths_agree(text, header)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(text=st.text(alphabet="0123456789.,-e_ \t\r\nx", max_size=60), header=st.booleans())
def test_dataset_csv_one_pass_matches_row_loop_on_any_text(text, header):
    assert_csv_paths_agree(text, header)


def _rows_outcome(parse):
    try:
        x, y = parse()
    except Exception as exc:
        return type(exc), str(exc)
    return x.shape, x.tobytes(), None if y is None else (y.dtype, y.tolist())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=csv_texts(), header=st.booleans(), n_features=st.integers(1, 4))
def test_feature_csv_one_pass_matches_row_loop(text, header, n_features):
    """With a feature count (as gda-project reads), read_csv gives what the
    row loop alone gives, labelled rows or not."""
    fast = _at_block_sizes(lambda: _rows_outcome(lambda: read_csv(text, header, n_features)))
    loop = _rows_outcome(lambda: _parse_rows(_data_lines(text, header), n_features))
    assert fast == loop


CSV_FIXED_CASES = [  # (text, header, whether the one-pass path parses it)
    ("\n1.0,2.0,0\n\n  \n3.0,4.0,1\n\n", False, True),  # blank lines
    ("f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n", True, True),
    ("1.0,2.0,0\r\n3.0,4.0,1\r\n", False, True),  # CRLF
    (" 1.0 ,\t2.0, 0 \n3.0 , 4.0 ,1\n", False, True),  # spaces around cells
    ("1_0,2.0,1_0\n3.0,4.0,1\n", False, True),  # Python numeric underscores
    ("1.0,2.0,1.0\n3.0,4.0,1\n", False, False),  # float label: CsvParse
    ("1.0,2.0,0\n3.0,1\n", False, False),  # ragged rows
    ("1.0\n2.0\n", False, False),  # single column
]


@pytest.mark.parametrize("text,header,fast", CSV_FIXED_CASES)
def test_dataset_csv_one_pass_fixed_cases(text, header, fast):
    outcome = assert_csv_paths_agree(text, header)
    assert (_parse_joined(_data_lines(text, header)) is not None) == fast
    if fast:
        assert outcome[0] == (2, 2)
    else:
        assert outcome[0] is CsvParse


FEATURE_ROWS = [f"{i}.5,{-i}" for i in range(6)]
GOOD_ROWS = "".join(f"{row},{i % 3}\n" for i, row in enumerate(FEATURE_ROWS))  # rows 0-5
CSV_BOUNDARY_CASES = [  # (text, header, n_features, samples shape or (error type, message))
    pytest.param("\n \nf0,f1,label\n" + GOOD_ROWS, True, None, (6, 2), id="header after blanks"),
    pytest.param("f0,f1\n\n" + "\n".join(FEATURE_ROWS), True, 2, (6, 2), id="unlabelled"),
    pytest.param(GOOD_ROWS.replace("\n", "\n\n \n"), False, None, (6, 2), id="blank lines"),
    pytest.param(GOOD_ROWS.replace("\n", "\r\n"), False, None, (6, 2), id="CRLF"),
    # no newline to cut at: one block
    pytest.param(GOOD_ROWS.replace("\n", "\r"), False, None, (6, 2), id="bare CR"),
    pytest.param("", False, 2, (0, 2), id="empty"),
    pytest.param("f0,f1,label\n \n", True, None, (CsvParse, "no data rows"), id="header only"),
    # after a header and a blank line, named by its row among the data rows
    pytest.param("f0,f1,label\n" + GOOD_ROWS + "\n7.0,x,1\n", True, None,
                 (CsvParse, "row 6: could not convert string to float: 'x'"), id="late bad cell"),
    pytest.param(GOOD_ROWS + "7.0,8.0,99999999999999999999\n", False, None,
                 (CsvParse, "row 6: label 99999999999999999999 does not fit in int64"),
                 id="late label beyond int64"),
    pytest.param(GOOD_ROWS + "7.0,8.0,1,0\n", False, None,
                 (CsvParse, "row 6: inconsistent column count"), id="late extra column"),
    pytest.param(GOOD_ROWS + "7.0,8.0,1,0\n", False, 2,
                 (DimensionMismatch, "row 6: 4 columns, model expects 2 features"),
                 id="late extra feature column"),
    pytest.param(GOOD_ROWS + "7.0,8.0\n", False, 2,
                 (DimensionMismatch, "row 6: no label column, unlike row 0"), id="label disappears"),
    pytest.param("7.0,8.0\n" + GOOD_ROWS, False, 2,
                 (DimensionMismatch, "row 1: a label column, unlike row 0"), id="label appears"),
]


@pytest.mark.parametrize("text,header,n_features,want", CSV_BOUNDARY_CASES)
def test_csv_blocks_cut_anywhere(text, header, n_features, want):
    """read_csv at every block size from 1 character to the whole text, so
    that a block boundary falls at every newline, gives what the row loop
    over the whole text gives."""
    parse = lambda: _rows_outcome(lambda: read_csv(text, header, n_features))
    fast = _at_block_sizes(parse, range(1, len(text) + 2))
    assert fast == _rows_outcome(lambda: _parse_rows(_data_lines(text, header), n_features))
    assert (fast if isinstance(want[0], type) else fast[0]) == want


def _write_csv_reference(samples, labels=None, prefix=None):
    """write_csv as one block: every row's cells at once."""
    cols = [f"{prefix}{i}" for i in range(samples.shape[1])]
    rows = [list(map(repr, row)) for row in samples.tolist()]
    if labels is not None:
        cols.append("label")
        rows = [cells + [str(lab)] for cells, lab in zip(rows, labels.tolist())]
    lines = ([] if prefix is None else [cols]) + rows
    return "\n".join(map(",".join, lines)) + "\n"


@st.composite
def csv_tables(draw):
    """(samples, labels or None) of 0 to 12 rows and 0 to 4 columns."""
    shape = (draw(st.integers(0, 12)), draw(st.integers(0, 4)))
    samples = np.array(draw(st.lists(st.floats(), min_size=shape[0] * shape[1],
                                     max_size=shape[0] * shape[1]))).reshape(shape)
    labels = np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=shape[0],
                                    max_size=shape[0])), dtype=np.int64)
    return samples, draw(st.sampled_from([labels, None]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(table=csv_tables(), prefix=st.sampled_from([None, "f", "g"]))
@example(table=(np.zeros((0, 2)), None), prefix=None)
@example(table=(np.zeros((0, 2)), None), prefix="g")
@example(table=(np.zeros((0, 2)), np.zeros(0, dtype=np.int64)), prefix=None)
@example(table=(np.zeros((0, 2)), np.zeros(0, dtype=np.int64)), prefix="f")
def test_write_csv_matches_one_block(table, prefix):
    """write_csv gives the bytes the one-block writer gives, zero rows
    included, with blocks of one row up to the whole table."""
    samples, labels = table
    want = _write_csv_reference(samples, labels, prefix)
    sizes = (_CSV_BLOCK_CHARS, *SMALL_CSV_BLOCKS, 100, 300)  # 100 and 300: blocks of 1 to 12 rows
    assert _at_block_sizes(lambda: write_csv(samples, labels, prefix), sizes) == want


def test_csv_memory_grows_with_the_output_alone():
    """From N to 4N rows, the peak traced memory of read_csv and of write_csv
    grows by at most twice the growth of what they return (at the end the
    blocks' results and their concatenation or join are both held) plus
    256 KiB, not by the cells of the whole text. So does that of a read_csv
    that fails at the last row, measured against what the good text
    returns: only the block that fails is parsed again row by row."""
    rng = np.random.default_rng(71)
    x, y = rng.normal(size=(12000, 8)), rng.integers(0, 4, 12000)

    def traced(call):
        tracemalloc.start()
        try:
            out = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, out

    def failing_read(text, rows):
        with pytest.raises(CsvParse, match=rf"^row {rows - 1}: could not convert"):
            read_csv(text)

    def peaks_and_outputs(rows):  # one row each for write_csv, read_csv, a failing read_csv
        write_peak, text = traced(lambda: write_csv(x[:rows], y[:rows]))
        read_peak, (samples, labels) = traced(lambda: read_csv(text))
        assert np.array_equal(samples, x[:rows]) and np.array_equal(labels, y[:rows])
        head, _, last = text.rstrip("\n").rpartition("\n")
        bad = f"{head}\nx{last[last.index(','):]}\n"  # the last row's first cell made x
        bad_peak, _ = traced(lambda: failing_read(bad, rows))
        read_bytes = samples.nbytes + labels.nbytes
        return np.array([[write_peak, sys.getsizeof(text)], [read_peak, read_bytes],
                         [bad_peak, read_bytes]])

    grew = peaks_and_outputs(12000) - peaks_and_outputs(3000)
    assert np.all(grew[:, 0] <= 2 * grew[:, 1] + 2**18), grew


@pytest.mark.parametrize("text,header", [(t, h) for t, h, fast in CSV_FIXED_CASES if fast])
def test_gda_project_reads_csv_like_gda_eval(tmp_path, text, header):
    """gda-project writes the projection of the samples load_dataset_csv
    (gda-eval's reader) reads, with the same labels; the same rows without
    their label column give the same numbers and no label column."""
    model_path = tmp_path / "model.json"
    model_path.write_text(save_model(train_gda(blobs(np.random.default_rng(67), [(0, 0), (4, 0), (0, 4)]))))
    model = load_model(model_path.read_text())  # what the CLI projects with
    data = load_dataset_csv(text, header)
    rows = [",".join(map(repr, p)) for p in project(model, data.samples).tolist()]
    unlabelled = re.sub(r",[^,\r\n]*(?=\r?$)", "", text, flags=re.M)
    for csv, labels in ((text, data.labels.tolist()), (unlabelled, None)):
        csv_path, out = tmp_path / "in.csv", tmp_path / "out.csv"
        csv_path.write_bytes(csv.encode())
        argv = ["gda-project", str(model_path), str(csv_path), "--out", str(out)]
        assert main(argv + ["--header"] * header) == 0
        if labels is None:
            want = ["g0,g1"] + rows
        else:
            want = ["g0,g1,label"] + [f"{r},{lab}" for r, lab in zip(rows, labels)]
        assert out.read_text() == "\n".join(want) + "\n"


def test_label_beyond_int64_is_an_error_not_an_overflow():
    for labels in ([2**63, 0], [2**70, 0]):  # a uint64 array, and Python ints numpy keeps as objects
        with pytest.raises(InvalidDataset, match="int64"):
            LabeledDataset(np.zeros((2, 1)), labels)
    with pytest.raises(CsvParse, match=r"^row 1: label 99999999999999999999 does not fit in int64$"):
        load_dataset_csv("1.0,2.0,1\n1.0,2.0,99999999999999999999\n")
    edges = load_dataset_csv(f"1.0,{2**63 - 1}\n2.0,{-2**63}\n")
    assert edges.labels.tolist() == [2**63 - 1, -2**63]


def test_samples_of_bools_ints_and_ints_beyond_int64_are_numbers():
    """Python ints beyond int64, which numpy keeps as objects, are samples
    float64 can hold; so are bools and rows mixing them."""
    data = LabeledDataset([[2**70, True], [1, 0.5]], [0, 1])
    assert data.samples.dtype == np.float64 and data.samples.tolist() == [[2.0**70, 1.0], [1.0, 0.5]]
    x = np.arange(6.0).reshape(3, 2)
    assert LabeledDataset(x, [0, 1, 1]).samples is x  # float64 rows are not copied
    with pytest.raises(InvalidDataset, match="rows of equal length"):
        LabeledDataset([[1.0, 2.0], [3.0]], [0, 1])


@pytest.mark.parametrize("labels", [["a", "b"], [None, 1], ["0", "1"], [b"0", b"1"], [1j, 0]],
                         ids=["str", "None", "numeric str", "bytes", "complex"])
def test_labels_that_are_not_numbers_are_an_error(labels):
    with pytest.raises(InvalidDataset, match="labels must"):
        LabeledDataset(np.zeros((2, 1)), labels)
    with pytest.raises(InvalidArgument, match="labels must"):
        scatter_matrices(np.eye(2), labels)
    with pytest.raises(InvalidArgument, match="k must"):
        scatter_matrices(np.eye(2).astype(str), [0, 1])


def test_fractional_or_wrapped_label_is_an_error():
    x = np.zeros((3, 1))
    for labels in ([0.5, 1.7, -2.9], [0.0, 1.0, np.nan], [0.0, 1.0, 2.0**63],
                   np.array([0, 1, 2**64 - 1], dtype=np.uint64)):
        with pytest.raises(InvalidDataset):
            LabeledDataset(x, labels)
    whole = LabeledDataset(x, [2.0, -1.0, 0.0]).labels
    assert whole.dtype == np.int64 and whole.tolist() == [2, -1, 0]
    small = LabeledDataset(x, np.array([0, 1, 2**63 - 1], dtype=np.uint64)).labels
    assert small.tolist() == [0, 1, 2**63 - 1]


@pytest.mark.parametrize("labels", [[0, 1], [[0], [1], [1]]], ids=["fewer", "(M, 1)"])
def test_one_label_per_sample_is_required(labels):
    with pytest.raises(DimensionMismatch, match="one label per sample"):
        LabeledDataset(np.zeros((3, 1)), labels)


def test_zero_feature_samples_are_an_error():
    with pytest.raises(InvalidDataset, match="n >= 1"):
        LabeledDataset(np.zeros((4, 0)), [0, 0, 1, 1])


def test_fresh_and_round_tripped_models_project_bit_identically():
    rng = np.random.default_rng(67)
    model = train_gda(blobs(rng, [(0, 0), (4, 0), (0, 4)]))
    back = load_model(save_model(model))
    u = np.vstack([[1.0, 2.0], rng.normal(0, 3, size=(40, 2))])
    assert project(back, u).tobytes() == project(model, u).tobytes()
    assert classify_nearest_mean(back, u).tolist() == classify_nearest_mean(model, u).tolist()


def test_model_roundtrip_exact_fields_and_projections():
    rng = np.random.default_rng(66)
    data = blobs(rng, [(0, 0), (4, 0), (0, 4)], n_per=6)
    model = train_gda(data, KernelSpec("rbf", gamma=0.25))
    text = save_model(model)
    back = load_model(text)
    assert save_model(back) == text  # byte-stable round trip
    assert np.array_equal(back.sigmas, model.sigmas)
    assert np.array_equal(back.etas, model.etas)
    assert np.array_equal(back.samples, model.samples)
    assert np.array_equal(back.class_means, model.class_means)
    assert back.eps == model.eps and back.spec == model.spec
    u = rng.normal(size=(5, 2))
    assert np.allclose(project(back, u), project(model, u), rtol=1e-12, atol=1e-12)


def test_model_classes_come_from_the_labels_and_a_legacy_classes_key_is_ignored():
    rng = np.random.default_rng(68)
    data = blobs(rng, [(0, 0), (6, 0), (0, 6)], n_per=6, sigma=0.4)
    model = train_gda(data, KernelSpec("rbf", gamma=0.2))
    text = save_model(model)
    assert "classes" not in json.loads(text) and model.classes.tolist() == [0, 1, 2]
    legacy = json.loads(text)
    legacy["classes"] = [0, 1, 7]
    back = load_model(json.dumps(legacy))
    assert back.classes.tolist() == [0, 1, 2] and save_model(back) == text
    assert classify_nearest_mean(back, data.samples).tolist() == data.labels.tolist()


def test_regularization_epsilon_trace_scaled_with_floor():
    m = 10
    u_w = np.eye(m) * 2.0
    assert regularization_epsilon(u_w) == pytest.approx(1e-8 * 20.0 / m)
    assert regularization_epsilon(np.zeros((4, 4))) == 1e-12


_MODEL_TEXT = save_model(train_gda(
    LabeledDataset([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]], [0, 0, 1, 1]),
    KernelSpec("polynomial"),
))
_MODEL_KEYS = sorted(set(json.loads(_MODEL_TEXT)) | set(json.loads(_MODEL_TEXT)["kernel"]))


def _model_with_kernel(**kernel):
    doc = json.loads(_MODEL_TEXT)
    doc["kernel"].update(kernel)
    return json.dumps(doc)


@settings(max_examples=200)
@given(text=json_documents(_MODEL_TEXT, _MODEL_KEYS))
@example(text="[" * 200000 + "]" * 200000)
@example(text=_model_with_kernel(kind="rbf", gamma=10**400))
@example(text=_model_with_kernel(degree=10**400))
def test_any_model_json_loads_and_projects_or_raises_stratseg_error(text):
    try:
        model = load_model(text)
        project(model, np.ones(model.samples.shape[1]))
    except StratsegError:
        pass


@pytest.mark.parametrize("field", ["samples", "labels", "sigmas", "class_means", "etas"])
def test_a_bool_among_a_model_files_numbers_is_invalid(field):
    rng = np.random.default_rng(69)
    doc = json.loads(save_model(train_gda(blobs(rng, [(0, 0), (4, 0), (0, 4)], n_per=3))))
    inner = doc[field]
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = True
    assert np.array(doc[field]).dtype.kind in "if"  # numpy takes the bool as 1 or 1.0
    with pytest.raises(InvalidModel, match=f"^{field} must hold finite numbers only$"):
        load_model(json.dumps(doc))
