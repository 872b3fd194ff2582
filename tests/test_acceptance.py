"""Acceptance criteria for the full pipeline.

Each test prints one PASS/FAIL line for its criterion (visible with -s or in
captured output) and then asserts it.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg

from stratseg import (
    GrayImage,
    KernelSpec,
    LabeledDataset,
    ObjectiveWeights,
    PhantomSpec,
    ShapeSpec,
    SplitPolicy,
    build_quadtree,
    classify_nearest_mean,
    compute_kernel_matrix,
    generate_phantom,
    load_dataset_csv,
    load_model,
    load_pgm,
    objective,
    optimize_leaf,
    oracle_best_threshold,
    project,
    save_dataset_csv,
    save_model,
    save_pgm,
    scatter_matrices,
    seg_metrics,
    segment_image,
    train_gda,
)
from stratseg.cli import main as cli_main
from stratseg.stratify import _stats

from pencil_reference import full_pencil_discriminants, scatter_ld

LD = np.longdouble


def report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# --- 1. threshold optimizer vs exhaustive oracle -------------------------------


def test_criterion_1_threshold_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ratios = []
    local_max_ok = True
    for _ in range(500):
        m0 = rng.uniform(30, 100)
        m1 = rng.uniform(150, 230)
        s0, s1 = rng.uniform(5, 25, size=2)
        frac = rng.uniform(0.3, 0.7)
        g = np.arange(256)
        pdf = frac * np.exp(-0.5 * ((g - m0) / s0) ** 2) / s0
        pdf += (1 - frac) * np.exp(-0.5 * ((g - m1) / s1) ** 2) / s1
        hist = np.rint(5000 * pdf / pdf.sum()).astype(np.int64)
        hist[int(m0)] += 1
        complexity = _stats(hist)[3].item() / 8.0
        res = optimize_leaf(hist, complexity)
        t_or, j_or = oracle_best_threshold(hist, complexity)
        ratios.append(1.0 if j_or == 0 else res.objective_value / j_or)
        w = ObjectiveWeights().effective(complexity)
        jall = objective(
            hist,
            np.arange(256, dtype=np.float64),
            ObjectiveWeights(w[0], w[1], adaptive=False),
        )
        t = res.threshold
        if not (0 <= t <= 255):
            local_max_ok = False
        if t > 0 and jall[t] < jall[t - 1] - 1e-15:
            local_max_ok = False
        if t < 255 and jall[t] < jall[t + 1] - 1e-15:
            local_max_ok = False
    elapsed = time.perf_counter() - t0
    ratios = np.array(ratios)
    frac_99 = float(np.mean(ratios >= 0.99))
    min_ratio = float(ratios.min())
    ok = frac_99 >= 0.95 and min_ratio >= 0.95 and local_max_ok and elapsed < 5.0
    report(
        1,
        "threshold oracle equivalence",
        ok,
        f">=0.99*oracle in {frac_99:.1%}, worst ratio {min_ratio:.4f}, "
        f"local max {local_max_ok}, {elapsed:.2f}s",
    )


# --- 2. quadtree tiling and stats ----------------------------------------------


def test_criterion_2_quadtree_tiling():
    rng = np.random.default_rng(102)
    tiling_ok = stats_ok = True
    for _ in range(200):
        w = int(rng.integers(4, 90))
        h = int(rng.integers(4, 90))
        style = rng.integers(0, 3)
        if style == 0:
            px = rng.integers(0, 256, size=(h, w))
        elif style == 1:
            small = rng.integers(0, 256, size=((h + 5) // 6, (w + 5) // 6))
            px = np.kron(small, np.ones((6, 6)))[:h, :w]
        else:
            ys, xs = np.mgrid[0:h, 0:w]
            px = 120.0 + 90.0 * np.cos(xs / 9.0) + rng.normal(0, 25, size=(h, w))
        img = GrayImage(np.clip(px, 0, 255).astype(np.uint8))
        policy = SplitPolicy(
            max_depth=int(rng.integers(0, 6)),
            min_side=int(rng.integers(2, 17)),
            var_threshold=float(rng.uniform(10, 2000)),
        )
        tree = build_quadtree(img, policy)
        cover = np.zeros((h, w), dtype=np.int32)
        for x0, y0, lw, lh in tree.rects[tree.leaves].tolist():
            cover[y0 : y0 + lh, x0 : x0 + lw] += 1
        if not np.all(cover == 1):
            tiling_ok = False
        stats = zip(tree.rects.tolist(), tree.variance.tolist(), tree.entropy_bits.tolist())
        for (x0, y0, nw, nh), node_var, node_ent in stats:
            sub = img.pixels[y0 : y0 + nh, x0 : x0 + nw].astype(np.float64)
            var = float(np.mean((sub - sub.mean()) ** 2))
            counts = np.bincount(sub.astype(np.int64).ravel(), minlength=256)
            p = counts[counts > 0] / sub.size
            ent = float(-(p * np.log2(p)).sum())
            if abs(node_var - var) > 1e-9 * max(var, 1.0):
                stats_ok = False
            if abs(node_ent - ent) > 1e-9 * max(ent, 1.0):
                stats_ok = False
    ok = tiling_ok and stats_ok
    report(2, "quadtree tiling", ok, f"tiling {tiling_ok}, stats {stats_ok} over 200 cases")


# --- 3. stratified segmentation beats a global threshold -----------------------


ACCEPTANCE_PHANTOM = PhantomSpec(
    width=512,
    height=512,
    background=80,
    shapes=(
        ShapeSpec("ellipse", 160.0, 170.0, 130.0, 105.0, 125),
        ShapeSpec("ellipse", 350.0, 340.0, 130.0, 110.0, 125),
    ),
    ramp_amplitude=40.0,
    noise_sigma=8.0,
    seed=20240613,
)


def test_criterion_3_stratified_segmentation_on_ramped_phantom():
    img, truth = generate_phantom(ACCEPTANCE_PHANTOM)
    t0 = time.perf_counter()
    tree, _, mask = segment_image(img)  # default policy, weights and simplex
    elapsed = time.perf_counter() - t0
    m = seg_metrics(mask, truth)

    # global single-threshold baseline via the exhaustive oracle on the root
    hist = np.bincount(img.pixels.ravel(), minlength=256)
    t_global, _ = oracle_best_threshold(hist, tree.entropy_bits[0] / 8.0)
    global_mask = GrayImage(
        np.where(img.pixels <= t_global, 0, 255).astype(np.uint8)
    )
    gm = seg_metrics(global_mask, truth)

    ok = (
        m.distortion <= 0.05
        and m.reliability >= 0.96
        and gm.reliability < m.reliability
        and elapsed < 3.0
    )
    report(
        3,
        "stratified segmentation",
        ok,
        f"distortion {m.distortion:.4f} (<=0.05), Dice {m.reliability:.4f} (>=0.96), "
        f"global-threshold Dice {gm.reliability:.4f} (strictly lower), {elapsed:.2f}s",
    )


# --- 4. scatter identity and positive semidefiniteness --------------------------


def random_dataset(rng, z=None):
    m_per = int(rng.integers(4, 11))
    n = int(rng.integers(2, 9))
    z = z if z is not None else int(rng.integers(2, 5))
    centers = rng.normal(0, 3, size=(z, n))
    xs, ys = [], []
    for label, c in enumerate(centers):
        xs.append(rng.normal(0, 0.8, size=(m_per, n)) + c)
        ys.extend([label] * m_per)
    return LabeledDataset(np.vstack(xs)[:40], np.array(ys)[:40])


def test_criterion_4_scatter_identity():
    rng = np.random.default_rng(104)
    kinds = ["linear", "rbf", "polynomial"]
    identity_ok = psd_ok = True
    worst_identity = 0.0
    for i in range(50):
        data = random_dataset(rng)
        spec = KernelSpec(kinds[i % 3])
        k = compute_kernel_matrix(data, spec)
        s = scatter_matrices(k, data.labels)
        rel = float(
            np.linalg.norm(s.u_t - s.u_b - s.u_w, "fro")
            / max(np.linalg.norm(s.u_t, "fro"), 1e-30)
        )
        worst_identity = max(worst_identity, rel)
        if rel > 1e-10:
            identity_ok = False
        for u in (s.u_b, s.u_w, s.u_t):
            evs = np.linalg.eigvalsh(u)
            if evs.min() < -1e-8 * max(np.abs(evs).max(), 1e-30):
                psd_ok = False
    ok = identity_ok and psd_ok
    report(
        4,
        "scatter identity",
        ok,
        f"worst ||U_t-U_b-U_w||/||U_t|| = {worst_identity:.2e} (<=1e-10), PSD {psd_ok}",
    )


# --- 5. eigen-system correctness of every trained model ------------------------


def model_zoo():
    rng = np.random.default_rng(105)
    specs = [
        KernelSpec("linear"),
        KernelSpec("rbf"),
        KernelSpec("rbf", gamma=0.3),
        KernelSpec("polynomial", degree=2),
        KernelSpec("polynomial", degree=3, coef=0.5),
    ]
    models = []
    for spec in specs:
        for z in (2, 3, 4):
            data = random_dataset(rng, z=z)
            models.append(train_gda(data, spec))
    return models


def test_criterion_5_eigen_system_correctness():
    worst_resid = worst_orth = worst_norm = 0.0
    sorted_ok = True
    n_models = 0
    for model in model_zoo():
        n_models += 1
        data = LabeledDataset(model.samples, model.labels)
        s = scatter_ld(compute_kernel_matrix(data, model.spec), model.labels)
        uwe = s.u_w + LD(model.eps) * np.eye(len(model.labels), dtype=LD)
        sig = model.sigmas.astype(LD)
        # normwise backward error of each eigenpair against the pencil,
        # ||U_b s - eta U_we s|| / ((||U_b|| + |eta| ||U_we||) ||s||)
        nb = np.linalg.norm(s.u_b.astype(np.float64), 2)
        nw = np.linalg.norm(uwe.astype(np.float64), 2)
        for j in range(model.n_discriminants):
            x = sig[:, j]
            r = s.u_b @ x - LD(model.etas[j]) * (uwe @ x)
            denom = (nb + abs(model.etas[j]) * nw) * np.linalg.norm(
                x.astype(np.float64)
            )
            worst_resid = max(
                worst_resid,
                float(np.linalg.norm(r.astype(np.float64)) / denom),
            )
        gram = (sig.T @ uwe @ sig).astype(np.float64)
        d = model.n_discriminants
        if d:
            off = np.abs(gram - np.diag(np.diag(gram)))
            worst_orth = max(worst_orth, float(off.max()) if d > 1 else 0.0)
            worst_norm = max(worst_norm, float(np.abs(np.diag(gram) - 1.0).max()))
        if np.any(np.diff(model.etas) > 1e-9 * np.abs(model.etas[:-1])):
            sorted_ok = False
    ok = worst_resid <= 1e-8 and worst_orth <= 1e-8 and worst_norm <= 1e-8 and sorted_ok
    report(
        5,
        "eigen-system correctness",
        ok,
        f"{n_models} models: worst residual {worst_resid:.2e}, "
        f"orthogonality {worst_orth:.2e}, normalization {worst_norm:.2e}, "
        f"sorted {sorted_ok} (all <=1e-8)",
    )


# --- 6. linear-kernel equivalence with classical LDA ----------------------------


def classical_lda(x, y):
    """Independent reference LDA: generalized eigenvectors of between- vs
    within-class feature scatter, eigenvalue-descending."""
    classes = np.unique(y)
    mu = x.mean(axis=0)
    sb = np.zeros((x.shape[1], x.shape[1]))
    sw = np.zeros_like(sb)
    for c in classes:
        xc = x[y == c]
        d = xc.mean(axis=0) - mu
        sb += len(xc) / len(x) * np.outer(d, d)
        sw += (xc - xc.mean(axis=0)).T @ (xc - xc.mean(axis=0)) / len(x)
    evals, evecs = scipy.linalg.eigh(sb, sw + 1e-10 * np.trace(sw) * np.eye(len(sw)))
    order = np.argsort(evals)[::-1][: len(classes) - 1]
    return evecs[:, order]


def lda_nearest_mean(w, x_train, y_train, x_test):
    p_train = x_train @ w
    p_test = x_test @ w
    classes = np.unique(y_train)
    means = np.stack([p_train[y_train == c].mean(axis=0) for c in classes])
    dists = np.linalg.norm(p_test[:, None, :] - means[None, :, :], axis=2)
    return classes[np.argmin(dists, axis=1)]


def make_gaussian_3class(rng, n_per, sigma=1.0):
    centers = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [6.0 * sigma, 0.0, 0.0, 0.0],
            [0.0, 6.0 * sigma, 0.0, 0.0],
        ]
    )
    xs, ys = [], []
    for label, c in enumerate(centers):
        xs.append(rng.normal(0, sigma, size=(n_per, 4)) + c)
        ys.extend([label] * n_per)
    return np.vstack(xs), np.array(ys)


def test_criterion_6_linear_kernel_lda_equivalence():
    rng = np.random.default_rng(106)
    x_train, y_train = make_gaussian_3class(rng, 20)  # M = 60
    x_test, y_test = make_gaussian_3class(rng, 40)
    t0 = time.perf_counter()
    model = train_gda(LabeledDataset(x_train, y_train), KernelSpec("linear"))
    ours_train = project(model, x_train)
    pred = classify_nearest_mean(model, x_test)
    elapsed = time.perf_counter() - t0

    w = classical_lda(x_train, y_train)
    theirs_train = x_train @ w
    corrs = [
        abs(np.corrcoef(ours_train[:, k], theirs_train[:, k])[0, 1]) for k in range(2)
    ]
    acc = float(np.mean(pred == y_test))
    lda_pred = lda_nearest_mean(w, x_train, y_train, x_test)
    lda_acc = float(np.mean(lda_pred == y_test))

    ok = (
        min(corrs) > 0.999
        and acc >= 0.95
        and abs(acc - lda_acc) <= 0.02
        and elapsed < 2.0
    )
    report(
        6,
        "linear-kernel LDA equivalence",
        ok,
        f"|r| per axis {corrs[0]:.6f}/{corrs[1]:.6f} (>0.999), "
        f"accuracy {acc:.3f} vs LDA {lda_acc:.3f} (>=0.95, within 0.02), {elapsed:.2f}s",
    )


# --- 7. low-rank solve vs full-pencil reference --------------------------------


def test_criterion_7_low_rank_vs_full_pencil_agreement():
    rng = np.random.default_rng(107)
    worst_angle = 0.0
    checked = 0
    etas_ok = True
    for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=0.3), KernelSpec("polynomial")):
        for z in (3, 4):
            data = random_dataset(rng, z=z)
            model = train_gda(data, spec)
            ref_sigmas, ref_etas = full_pencil_discriminants(
                data, spec, model.n_discriminants
            )
            etas = model.etas
            gaps = np.abs(np.diff(etas)) / np.maximum(np.abs(etas[:-1]), 1e-30)
            if len(etas) < 2 or gaps.min() <= 1e-6:
                continue  # degenerate spectrum: agreement not required
            checked += 1
            etas_ok = etas_ok and np.allclose(etas, ref_etas, rtol=1e-8)
            angle = float(
                scipy.linalg.subspace_angles(model.sigmas, ref_sigmas).max()
            )
            worst_angle = max(worst_angle, angle)
    ok = checked >= 4 and worst_angle < 1e-6 and etas_ok
    report(
        7,
        "low-rank solve vs full-pencil reference",
        ok,
        f"{checked} nondegenerate models, worst principal angle {worst_angle:.2e} rad (<1e-6), "
        f"eta within rtol 1e-8 {etas_ok}",
    )


def residual_cases():
    """The two linear-kernel datasets on which an uncompensated float64
    refinement residual misses criterion 7's angle bound. They are the only
    two among 80 draws (seeds 1000-1009, four z=3 then z=4 pairs each)."""
    rng = np.random.default_rng(1006)
    random_dataset(rng, z=3)
    return [random_dataset(np.random.default_rng(1009), z=3), random_dataset(rng, z=4)]


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="longdouble is float64 here, so the full-pencil reference of "
    "pencil_reference.py is no more precise than the float64 model it checks",
)
@pytest.mark.parametrize("case", [0, 1])
def test_low_rank_refinement_residual_extended_precision(case):
    data = residual_cases()[case]
    spec = KernelSpec("linear")
    model = train_gda(data, spec)
    ref_sigmas, ref_etas = full_pencil_discriminants(data, spec, model.n_discriminants)
    angle = float(scipy.linalg.subspace_angles(model.sigmas, ref_sigmas).max())
    assert angle < 1e-6
    assert np.allclose(model.etas, ref_etas, rtol=1e-8)


# --- 8. byte-identical CLI reruns -----------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(ACCEPTANCE_PHANTOM.to_json())

    rng = np.random.default_rng(108)
    xs, ys = [], []
    for label, c in enumerate([(0, 0), (4, 0), (0, 4)]):
        xs.append(rng.normal(0, 0.6, size=(10, 2)) + np.asarray(c))
        ys.extend([label] * 10)
    csv_path = tmp_path / "train.csv"
    csv_path.write_text(save_dataset_csv(LabeledDataset(np.vstack(xs), np.array(ys))))

    results = []
    for tag in ("a", "b"):
        img = tmp_path / f"img_{tag}.pgm"
        msk = tmp_path / f"msk_{tag}.pgm"
        seg_mask = tmp_path / f"seg_{tag}.pgm"
        seg_rep = tmp_path / f"rep_{tag}.json"
        mdl = tmp_path / f"model_{tag}.json"
        assert cli_main(["phantom", str(spec_path), "--image", str(img), "--mask", str(msk)]) == 0
        assert cli_main(["segment", str(img), "--mask-out", str(seg_mask), "--report-out", str(seg_rep)]) == 0
        assert cli_main(["gda-train", str(csv_path), "--model-out", str(mdl), "--kernel", "rbf"]) == 0
        results.append(
            tuple(p.read_bytes() for p in (img, msk, seg_mask, seg_rep, mdl))
        )
    ok = results[0] == results[1]
    report(8, "CLI determinism", ok, "phantom, segment and gda-train reruns byte-identical")


# --- 9. format round-trip fidelity ----------------------------------------------


def test_criterion_9_format_fidelity():
    rng = np.random.default_rng(109)
    pgm_ok = csv_ok = model_ok = True
    for _ in range(200):
        w, h = rng.integers(1, 48, size=2)
        img = GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
        if load_pgm(save_pgm(img)) != img:
            pgm_ok = False
    for _ in range(200):
        m = int(rng.integers(2, 20))
        n = int(rng.integers(1, 6))
        data = LabeledDataset(
            rng.normal(0, 10, size=(m, n)), rng.integers(0, 4, size=m)
        )
        back = load_dataset_csv(save_dataset_csv(data))
        if not (np.array_equal(back.samples, data.samples) and np.array_equal(back.labels, data.labels)):
            csv_ok = False
    for i in range(200):
        xs = np.vstack(
            [rng.normal(0, 0.5, size=(3, 2)) + c for c in ((0, 0), (3, 0), (0, 3))]
        )
        data = LabeledDataset(xs, np.repeat([0, 1, 2], 3))
        spec = KernelSpec(["linear", "rbf", "polynomial"][i % 3])
        model = train_gda(data, spec)
        text = save_model(model)
        back = load_model(text)
        if save_model(back) != text:
            model_ok = False
        if not (
            np.array_equal(back.sigmas, model.sigmas)
            and np.array_equal(back.etas, model.etas)
            and np.array_equal(back.samples, model.samples)
        ):
            model_ok = False
    ok = pgm_ok and csv_ok and model_ok
    report(
        9,
        "format fidelity",
        ok,
        f"200 PGM ({pgm_ok}), 200 CSV ({csv_ok}), 200 model ({model_ok}) round trips",
    )
