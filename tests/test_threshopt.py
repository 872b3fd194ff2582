import math
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stratseg import (
    GrayImage,
    LeafThreshold,
    ObjectiveWeights,
    PhantomSpec,
    ShapeSpec,
    SimplexParams,
    SplitPolicy,
    ThresholdReport,
    build_quadtree,
    generate_phantom,
    objective,
    optimize_leaf,
    oracle_best_threshold,
    segment,
    segment_image,
    threshold_tree,
)
from stratseg import imgio, stratify
from stratseg.errors import DimensionMismatch, EmptyHistogram, InvalidArgument, ReportTreeMismatch
from stratseg.imgio import Rect
from stratseg.stratify import _stats
from stratseg.threshopt import _BLOCK_ROWS, _complexity, _optimize_rows, _refine, _Tables

from objective_reference import (
    ReferenceTables,
    probe_terms,
    reference_nelder_mead,
    reference_optimize_leaf,
    reference_probe,
    reference_refine,
)
from quadtree_reference import reference_stats
from segment_reference import reference_segment


def discrete_objective(hist, t, w_var, w_ent):
    """Independent reference implementation of J at integer t (plain loops)."""
    counts = [float(c) for c in hist]
    n = sum(counts)
    mean = sum(g * c for g, c in enumerate(counts)) / n
    var_tot = sum(c * (g - mean) ** 2 for g, c in enumerate(counts)) / n
    w0 = sum(counts[: t + 1]) / n
    w1 = 1.0 - w0
    if w0 > 0 and w1 > 0 and var_tot > 0:
        mu0 = sum(g * counts[g] for g in range(t + 1)) / (n * w0)
        mu1 = (mean - w0 * mu0) / w1
        v = w0 * w1 * (mu0 - mu1) ** 2 / var_tot
    else:
        v = 0.0
    h0 = h1 = 0.0
    if w0 > 0:
        h0 = sum(
            -(counts[g] / n / w0) * math.log(counts[g] / n / w0)
            for g in range(t + 1)
            if counts[g] > 0
        )
    if w1 > 0:
        h1 = sum(
            -(counts[g] / n / w1) * math.log(counts[g] / n / w1)
            for g in range(t + 1, 256)
            if counts[g] > 0
        )
    e = min(max((h0 + h1) / (2.0 * math.log(256.0)), 0.0), 1.0)
    return w_var * v + w_ent * e


def bimodal_hist(rng, n=4000):
    m0 = rng.uniform(30, 100)
    m1 = rng.uniform(150, 230)
    s0, s1 = rng.uniform(5, 25, size=2)
    frac = rng.uniform(0.3, 0.7)
    g = np.arange(256)
    pdf = frac * np.exp(-0.5 * ((g - m0) / s0) ** 2) / s0 + (1 - frac) * np.exp(
        -0.5 * ((g - m1) / s1) ** 2
    ) / s1
    counts = np.rint(n * pdf / pdf.sum()).astype(np.int64)
    counts[int(m0)] += 1  # ensure nonempty
    return counts


def spike_hist(*pairs):
    h = np.zeros(256, dtype=np.int64)
    for level, count in pairs:
        h[level] = count
    return h


FIXED = ObjectiveWeights(w_var=0.7, w_ent=0.3, adaptive=False)
VAR_ONLY = ObjectiveWeights(w_var=1.0, w_ent=0.0, adaptive=False)


def test_objective_matches_independent_reference_at_integers():
    rng = np.random.default_rng(31)
    for _ in range(20):
        hist = rng.integers(0, 50, size=256)
        hist[rng.integers(0, 256)] += 5  # guarantee mass
        for t in rng.integers(0, 256, size=12):
            ours = objective(hist, float(t), FIXED)
            ref = discrete_objective(hist, int(t), 0.7, 0.3)
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_objective_continuous_between_knots():
    hist = bimodal_hist(np.random.default_rng(32))
    for t in [10.0, 77.3, 140.5, 200.9]:
        j0 = objective(hist, t, FIXED)
        j1 = objective(hist, t + 1e-9, FIXED)
        assert abs(j0 - j1) < 1e-6


def test_objective_constant_histogram_is_zero():
    hist = spike_hist((120, 500))
    ts = np.arange(256, dtype=np.float64)
    j = objective(hist, ts, FIXED)
    assert np.all(j == 0.0)


def test_objective_two_spike_plateau_at_one():
    hist = spike_hist((50, 100), (200, 100))
    ts = np.arange(256, dtype=np.float64)
    j = objective(hist, ts, VAR_ONLY)
    inside = (ts >= 50) & (ts <= 199)
    assert np.allclose(j[inside], 1.0, atol=1e-12)
    assert np.all(j[~inside] < 1.0)


def test_objective_clamps_threshold_range():
    hist = bimodal_hist(np.random.default_rng(33))
    assert objective(hist, -40.0, FIXED) == objective(hist, 0.0, FIXED)
    assert objective(hist, 300.0, FIXED) == objective(hist, 255.0, FIXED)


def test_objective_empty_histogram_raises():
    with pytest.raises(EmptyHistogram):
        objective(np.zeros(256, dtype=np.int64), 10.0, FIXED)


def criterion_1_histograms():
    """The 500 (histogram, complexity) pairs of acceptance criterion 1."""
    rng = np.random.default_rng(101)
    g = np.arange(256)
    for _ in range(500):
        m0 = rng.uniform(30, 100)
        m1 = rng.uniform(150, 230)
        s0, s1 = rng.uniform(5, 25, size=2)
        frac = rng.uniform(0.3, 0.7)
        pdf = frac * np.exp(-0.5 * ((g - m0) / s0) ** 2) / s0
        pdf += (1 - frac) * np.exp(-0.5 * ((g - m1) / s1) ** 2) / s1
        hist = np.rint(5000 * pdf / pdf.sum()).astype(np.int64)
        hist[int(m0)] += 1
        yield hist, _complexity(_stats(hist)[3].item())


def seed_34_histograms(count=2000):
    """The random (histogram, complexity) pairs of the seed-34 leaf tests."""
    rng = np.random.default_rng(34)
    for _ in range(count):
        hist = rng.integers(0, 30, size=256)
        hist[rng.integers(0, 256)] += 10
        yield hist, float(rng.uniform(0, 1))


EDGE_HISTOGRAMS = [
    spike_hist((0, 64)),  # om1 == 0 everywhere: all mass at level 0
    spike_hist((255, 64)),  # om0 == 0 below 255: all mass at level 255
    spike_hist((120, 1)),  # a single level: var_tot == 0
    spike_hist((7, 3), (8, 5)),
]


def zoo_cases():
    """The criterion-1 and seed-34 pairs, then each edge histogram at three
    complexities."""
    cases = list(criterion_1_histograms()) + list(seed_34_histograms())
    return cases + [(h, c) for h in EDGE_HISTOGRAMS for c in (0.0, 0.5, 1.0)]


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def test_probe_is_bit_identical_to_0d_reference():
    """The plain-float reference probe and the library's array evaluation on
    a (1, c) block both give the bits of the numpy 0-d evaluation."""
    rng = np.random.default_rng(39)
    cases = zoo_cases()
    for i, (hist, complexity) in enumerate(cases):
        wv, we = ObjectiveWeights().effective(complexity)
        ref = ReferenceTables(hist)
        probe = reference_probe(ref, wv, we)
        if i >= 2500:  # edge histograms: a grid across both clamps
            ts = np.arange(-2.5, 258.0, 1.25).tolist()
        else:
            ts = [-7.5, 300.25, ref.mean, ref.mean + 16.0]
            ts += [rng.uniform(0.0, 255.0), float(rng.integers(0, 256))]
        for t in ts:
            assert bits(probe(t)) == bits(ref.evaluate(t, wv, we)), (t, hist)
        lockstep = _Tables(hist).evaluate(np.zeros((1, 1), np.int64), np.array([ts]), wv, we)[0]
        assert np.array_equal(bits(lockstep), bits([probe(t) for t in ts])), hist


def zoo_probe_terms():
    """(om0, om1) of the probes on the criterion-1, seed-34 and
    edge histograms: at every point the scalar simplex visits, and at 32
    random points per histogram."""
    rng = np.random.default_rng(43)
    cases = zoo_cases()
    ts = []
    for hist, complexity in cases:
        ref = ReferenceTables(hist)
        probe = reference_probe(ref, *ObjectiveWeights().effective(complexity))
        points = rng.uniform(-1.0, 256.0, size=32).tolist()
        reference_nelder_mead(lambda t: points.append(t) or probe(t), ref.mean)
        ts += [probe_terms(ref, t)[1:3] for t in points]
    return [list(column) for column in zip(*ts)]


def test_array_ufuncs_match_the_scalar_probe():
    """The lockstep probe logs with array np.log, which must give the bits
    of the scalar probe's scalar np.log on the values the probes meet."""
    om0, om1 = zoo_probe_terms()
    assert len(om0) > 100_000
    logs = np.array([x for x in om0 + om1 if x > 0])
    scalar = bits([float(np.log(x)) for x in logs.tolist()])
    assert np.array_equal(bits(np.log(logs)), scalar), "array np.log differs from scalar np.log"
    head = logs[:4096]
    for size in (1, 2, 3, 7, 8, 9, 15, 16, 17):  # SIMD bodies and remainders
        chunked = np.concatenate([np.log(head[i : i + size]) for i in range(0, len(head), size)])
        assert np.array_equal(bits(chunked), scalar[: len(head)]), (
            f"array np.log on {size}-element arrays differs from scalar np.log"
        )


def test_knot_table_is_bit_identical_to_array_evaluation():
    """J at the integer knots, as the refinement reads it, is the bits of J at
    the same float t and of the reference; a knot outside [0, top] takes the
    edge's value."""
    cases = zoo_cases()
    knots = np.arange(256.0)
    for hist, complexity in cases:
        wv, we = ObjectiveWeights().effective(complexity)
        tab = _Tables(hist)
        padded = tab.evaluate(0, np.arange(-2, 258), wv, we)
        table = padded[2:-2]
        assert np.array_equal(bits(table), bits(tab.evaluate(0, knots, wv, we)))
        assert np.array_equal(bits(table), bits(ReferenceTables(hist).evaluate(knots, wv, we)))
        assert np.array_equal(bits(padded[:2]), bits([table[0]] * 2))
        assert np.array_equal(bits(padded[-2:]), bits([table[-1]] * 2))


def test_stats_and_tables_take_the_level_count_from_the_histograms():
    """On a stack of 16-level histograms, each occupying one to all 16
    levels, the stats, J at the knots and at real t across both clamps, and
    the optimizer's results are the bits of the scalar references over 16
    levels."""
    rng = np.random.default_rng(30)
    hists = np.zeros((40, 16), dtype=np.int64)
    for row in hists:
        m = int(rng.integers(1, 17))
        row[rng.choice(16, m, replace=False)] = rng.integers(1, 10**6, m)
    for hist, stats in zip(hists, np.array(_stats(hists)).T):
        expect = reference_stats(hist)
        assert [float(v).hex() for v in stats] == [float(v).hex() for v in expect]
    complexities = rng.uniform(0.0, 1.0, len(hists))
    tab = _Tables(hists)
    knots, ts = np.arange(16.0), np.append(rng.uniform(-2.0, 18.0, 32), [0.0, 15.0, 15.5])
    found = _optimize_rows(hists, complexities, ObjectiveWeights(), SimplexParams())
    for i, (hist, complexity) in enumerate(zip(hists, complexities)):
        wv, we = ObjectiveWeights().effective(complexity)
        ref = ReferenceTables(hist)
        for t in (knots, ts):
            assert np.array_equal(bits(tab.evaluate(i, t, wv, we)), bits(ref.evaluate(t, wv, we)))
        padded = tab.evaluate(i, np.arange(-1, 17), wv, we)
        assert np.array_equal(bits(padded[1:-1]), bits(ref.knot_table(wv, we)))
        assert bits(padded[0]) == bits(padded[1]) and bits(padded[-1]) == bits(padded[-2])
        expect = reference_optimize_leaf(hist, complexity, tables=ref)
        assert LeafThreshold(*found[i]) == expect, hist


ENTROPY_ONLY = ObjectiveWeights(w_var=0.0, w_ent=1.0, adaptive=False)

# (histogram, weights, refined threshold): knots 0, 1, top - 1 and top, and 0
# again from a continuous optimum below 0; each rounded optimum lies within 3
# knots of an edge, so the +-3 window crosses a clamp
REFINE_EDGE_CASES = [
    (spike_hist((0, 100), (2, 100)), ObjectiveWeights(), 0),
    (spike_hist((0, 100), (1, 100), (255, 1)), ObjectiveWeights(), 1),
    (spike_hist((254, 100), (255, 100)), ObjectiveWeights(), 254),
    (spike_hist((0, 1), (255, 100)), ENTROPY_ONLY, 255),
    (spike_hist((1, 100), (2, 100), (255, 1)), ENTROPY_ONLY, 0),
]


@pytest.mark.parametrize("hist, weights, knot", REFINE_EDGE_CASES)
def test_refine_window_across_the_clamps_matches_the_reference(hist, weights, knot):
    """Off-range knots take the edge's J and come before it in the window;
    the knot picked is clipped back into [0, top]. The leaf's result is the
    reference's bit for bit, and so is the refinement from each start within
    5 knots of either edge."""
    expect = reference_optimize_leaf(hist, 1.0, weights)
    assert expect.threshold == knot
    t0 = math.floor(min(max(expect.continuous_optimum, 0.0), 255.0) + 0.5)
    assert min(t0, 255 - t0) < 3
    assert optimize_leaf(hist, 1.0, weights) == expect
    wv, we = weights.effective(1.0)
    j = ReferenceTables(hist).knot_table(wv, we)
    starts = np.concatenate([np.arange(-5.0, 5.0, 0.5), np.arange(250.0, 260.0, 0.5)])
    column = np.ones((len(starts), 1))
    t, jt = _refine(_Tables(np.tile(hist, (len(starts), 1))), starts, wv * column, we * column)
    expect_t = [reference_refine(j, s) for s in starts.tolist()]
    assert t.tolist() == expect_t
    assert np.array_equal(bits(jt), bits(j[expect_t]))


def test_complexity_is_clamped_to_1():
    """Rows of about 1e9 counts at every level can reach an entropy one ulp
    above 8 bits. Their complexity is exactly 1, so the adaptive weights stay
    nonnegative and the one-histogram entry points accept it; the unclamped
    share, one ulp above 1, would be refused."""
    rng = np.random.default_rng(0)
    rows = np.full((20000, 256), 10**9) + rng.integers(-3, 4, size=(20000, 256))
    entropy = np.concatenate([_stats(rows[lo : lo + 2000])[3] for lo in range(0, len(rows), 2000)])
    over = np.flatnonzero(entropy > 8.0)
    assert over.size and set(entropy[over].tolist()) == {float.fromhex("0x1.0000000000001p+3")}
    assert np.all(_complexity(entropy) <= 1.0)
    weights, unclamped = ObjectiveWeights(w_var=0.0, w_ent=1.0), np.nextafter(1.0, 2.0)
    assert weights.effective(unclamped)[0] < 0.0
    for i in over.tolist():
        complexity = _complexity(entropy[i])
        assert complexity == 1.0 and weights.effective(complexity)[0] >= 0.0
        assert optimize_leaf(rows[i], complexity, weights).w_var == 0.0
        with pytest.raises(InvalidArgument, match="^complexity"):
            optimize_leaf(rows[i], unclamped, weights)


def _row(kind, rng):
    """One nonempty histogram of the given kind, and a complexity."""
    h = np.zeros(256, dtype=np.int64)
    if kind == "mass at 0":
        h[0] = rng.integers(1, 500)
    elif kind == "mass at 255":
        h[255] = rng.integers(1, 500)
    elif kind == "single level":
        h[rng.integers(0, 256)] = rng.integers(1, 500)
    elif kind == "bimodal":
        h = bimodal_hist(rng, n=int(rng.integers(50, 5000)))
    elif kind == "sparse":
        h = np.where(rng.random(256) < 0.05, rng.integers(1, 60, size=256), 0)
        h[rng.integers(0, 256)] += 1
    else:  # "noise"
        h = rng.integers(0, 30, size=256)
        h[rng.integers(0, 256)] += 10
    return h, float(rng.uniform(0, 1))


ROW_KINDS = ["mass at 0", "mass at 255", "single level", "bimodal", "sparse", "noise"]


def assert_same_leaf(got, ref):
    """Every LeafThreshold field equal, floats bit for bit, with the same
    Python types."""
    assert got == ref
    for name in ("threshold", "continuous_optimum", "objective_value", "iterations", "converged"):
        assert type(getattr(got, name)) is type(getattr(ref, name)), name
    assert bits(got.continuous_optimum) == bits(ref.continuous_optimum)
    assert bits(got.objective_value) == bits(ref.objective_value)
    assert (bits(got.w_var), bits(got.w_ent)) == (bits(ref.w_var), bits(ref.w_ent))


# row counts inside one block, and across the block edges
BATCH_ROWS = sorted(
    {1, 31, 32, 33, 69, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 5}
)


@pytest.mark.parametrize("rows", BATCH_ROWS)
@settings(max_examples=12)
@given(seed=st.integers(0, 2**32 - 1), kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1))
def test_batched_rows_match_optimize_leaf_alone(rows, seed, kinds):
    """Every row's LeafThreshold from one batched call is bit-identical to
    the scalar per-leaf optimizer on that histogram alone, whatever else is
    in its block."""
    rng = np.random.default_rng(seed)
    cases = [_row(kinds[i % len(kinds)], rng) for i in range(rows)]
    hists = np.stack([h for h, _ in cases])
    batched = _optimize_rows(hists, [c for _, c in cases], ObjectiveWeights(), SimplexParams())
    assert len(batched) == rows
    for (hist, complexity), got in zip(cases, batched):
        assert_same_leaf(LeafThreshold(*got), reference_optimize_leaf(hist, complexity))


ENT_ONLY = ObjectiveWeights(w_var=0.0, w_ent=1.0, adaptive=False)
PARAM_VARIANTS = [
    SimplexParams(),
    SimplexParams(max_iter=3),
    SimplexParams(diameter_tol=1e-9),
    SimplexParams(max_iter=1, diameter_tol=100.0),
]


@pytest.fixture(scope="module")
def reference_zoo():
    """The criterion-1, seed-34 and edge histograms with their reference tables."""
    return [(h, c, ReferenceTables(h)) for h, c in zoo_cases()]


@pytest.mark.parametrize(
    "weights", [ObjectiveWeights(), VAR_ONLY, ENT_ONLY], ids=["default", "var", "ent"]
)
@pytest.mark.parametrize("params", PARAM_VARIANTS, ids=["default", "iter3", "tol1e-9", "no-iter"])
def test_optimize_rows_matches_scalar_reference(reference_zoo, weights, params):
    """The lockstep simplex and refinement give every field of the scalar
    per-leaf optimizer, bit for bit, while rows retire at mixed iterations."""
    hists, complexities, _ = zip(*reference_zoo)
    got = [LeafThreshold(*row) for row in _optimize_rows(hists, complexities, weights, params)]
    for (hist, complexity, tables), leaf in zip(reference_zoo, got):
        assert_same_leaf(leaf, reference_optimize_leaf(hist, complexity, weights, params, tables))
    assert len({leaf.iterations for leaf in got}) > 1 or params.max_iter <= 3


def test_scalar_objective_is_probe():
    hist = bimodal_hist(np.random.default_rng(40))
    ref = ReferenceTables(hist)
    for t in (-3.0, 17, np.float32(99.5), np.array(140.25), 255.0):
        j = objective(hist, t, FIXED)
        assert type(j) is float
        assert bits(j) == bits(ref.evaluate(t, 0.7, 0.3))
    assert math.isnan(objective(hist, math.nan, FIXED))


def test_scalar_and_array_objective_share_one_evaluation():
    """A float t gives the bits of the one-element array [t] on the
    criterion-1, the first 500 seed-34 and the edge histograms, at the mean,
    the mean + 16, past both clamps and at a random point; a NaN t still
    gives NaN, with no RuntimeWarning."""
    rng = np.random.default_rng(44)
    cases = list(criterion_1_histograms()) + list(seed_34_histograms(500))
    for hist, complexity in cases + [(h, c) for h in EDGE_HISTOGRAMS for c in (0.0, 0.5, 1.0)]:
        mean = _stats(hist)[1].item()
        ts = [mean, mean + 16.0, -7.5, 300.25, rng.uniform(0.0, 255.0)]
        for t in ts:
            scalar = objective(hist, t, complexity=complexity)
            assert type(scalar) is float
            assert bits(scalar) == bits(objective(hist, [t], complexity=complexity)[0]), (t, hist)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(objective(hist, math.nan, complexity=complexity))
        # a NaN entry of an array t is NaN too, and the other entries keep their bits
        ts = np.array([np.nan, 3.0, np.nan, 140.25])
        got = objective(hist, ts, complexity=complexity)
        assert np.isnan(got[[0, 2]]).all()
        assert bits(got[1]) == bits(objective(hist, 3.0, complexity=complexity))
        assert bits(got[3]) == bits(objective(hist, 140.25, complexity=complexity))


def test_effective_weights_normalized_and_adaptive():
    w = ObjectiveWeights(w_var=0.7, w_ent=0.3, adaptive=True)
    assert w.effective(0.0) == (1.0, 0.0)
    wv, we = w.effective(1.0)
    assert (wv, we) == pytest.approx((0.7, 0.3))
    wv, we = w.effective(0.5)
    assert we == pytest.approx(0.15) and wv + we == pytest.approx(1.0)
    wv, we = ObjectiveWeights(w_var=2.0, w_ent=2.0, adaptive=False).effective(0.9)
    assert (wv, we) == pytest.approx((0.5, 0.5))


def test_nelder_mead_respects_max_iter():
    params = SimplexParams(max_iter=3, diameter_tol=1e-9)
    res = optimize_leaf(bimodal_hist(np.random.default_rng(37)), 1.0, FIXED, params)
    assert res.iterations == 3 and not res.converged


def test_nelder_mead_plateau_returns_plateau_value():
    hist = spike_hist((50, 100), (200, 100))
    t, j = oracle_best_threshold(hist, 1.0, VAR_ONLY)
    res = optimize_leaf(hist, 1.0, VAR_ONLY)  # the simplex starts at the mean, 125
    assert res.converged
    assert objective(hist, res.continuous_optimum, VAR_ONLY) == pytest.approx(j, abs=1e-12)
    assert 50.0 <= res.continuous_optimum <= 200.0


def test_optimize_leaf_constant_region():
    res = optimize_leaf(spike_hist((0, 64)), complexity=0.0)
    assert res.threshold == 0
    assert res.objective_value == 0.0
    assert res.converged


def test_optimize_leaf_threshold_is_integer_local_max():
    rng = np.random.default_rng(34)
    for _ in range(50):
        hist = rng.integers(0, 30, size=256)
        hist[rng.integers(0, 256)] += 10
        complexity = float(rng.uniform(0, 1))
        res = optimize_leaf(hist, complexity)
        w = ObjectiveWeights().effective(complexity)
        j = objective(hist, np.arange(256, dtype=np.float64), ObjectiveWeights(w[0], w[1], adaptive=False))
        t = res.threshold
        assert 0 <= t <= 255
        if t > 0:
            assert j[t] >= j[t - 1] - 1e-15
        if t < 255:
            assert j[t] >= j[t + 1] - 1e-15


def test_optimize_leaf_objective_value_is_knot_table_entry():
    for hist, complexity in seed_34_histograms():
        res = optimize_leaf(hist, complexity)
        wv, we = ObjectiveWeights().effective(complexity)
        j = objective(hist, np.arange(256.0), ObjectiveWeights(wv, we, adaptive=False))
        assert res.objective_value == j[res.threshold]


def test_optimize_leaf_attains_oracle_on_clean_bimodal():
    rng = np.random.default_rng(35)
    for _ in range(20):
        hist = bimodal_hist(rng)
        res = optimize_leaf(hist, complexity=1.0)
        _, j_best = oracle_best_threshold(hist, complexity=1.0)
        assert res.objective_value >= 0.99 * j_best


def test_oracle_exhaustive_argmax_with_smallest_tie():
    hist = spike_hist((50, 100), (200, 100))
    t, j = oracle_best_threshold(hist, 1.0, VAR_ONLY)
    assert t == 50 and j == pytest.approx(1.0)
    rng = np.random.default_rng(36)
    for _ in range(10):
        hist = rng.integers(0, 40, size=256)
        hist[5] += 3
        t, j = oracle_best_threshold(hist, 0.8)
        w = ObjectiveWeights().effective(0.8)
        all_j = objective(hist, np.arange(256, dtype=np.float64), ObjectiveWeights(w[0], w[1], adaptive=False))
        assert j == pytest.approx(float(all_j.max()))
        assert t == int(np.argmax(all_j))


def quadrant_image():
    px = np.zeros((16, 16), dtype=np.uint8)
    px[:8, 8:] = 85
    px[8:, :8] = 170
    px[8:, 8:] = 255
    return GrayImage(px)


def test_threshold_tree_homogeneous_leaves_inherit_parent():
    img = quadrant_image()
    tree = build_quadtree(img, SplitPolicy(min_side=8))
    report = threshold_tree(img, tree)
    assert len(report) == 4
    root_rect = Rect(*tree.rects[0].tolist())
    ts = {e.threshold for e in report.entries}
    assert len(ts) == 1  # all four inherit the same parent threshold
    for e in report.entries:
        assert e.source_rect == root_rect
    t = report.entries[0].threshold
    assert 85 <= t < 170  # separates the two darker from the two brighter quadrants


def test_threshold_tree_heterogeneous_leaf_uses_own_histogram():
    # root too varied to be homogeneous but unsplittable: min_side blocks it
    px = np.zeros((16, 16), dtype=np.uint8)
    px[:, 8:] = 200
    img = GrayImage(px)
    tree = build_quadtree(img, SplitPolicy(min_side=9))
    report = threshold_tree(img, tree)
    assert len(report) == 1
    assert report.entries[0].source_rect is None
    assert 0 <= report.entries[0].threshold < 200


def test_segment_quadrant_image():
    img = quadrant_image()
    tree = build_quadtree(img, SplitPolicy(min_side=8))
    mask = segment(img, tree, threshold_tree(img, tree))
    assert np.all(mask.pixels[:8, :8] == 0)
    assert np.all(mask.pixels[:8, 8:] == 0)
    assert np.all(mask.pixels[8:, :8] == 255)
    assert np.all(mask.pixels[8:, 8:] == 255)


def test_segment_output_is_binary_and_full_size():
    rng = np.random.default_rng(37)
    px = rng.integers(0, 256, size=(33, 47), dtype=np.uint8)
    img = GrayImage(px)
    tree = build_quadtree(img, SplitPolicy(min_side=4, var_threshold=100.0))
    mask = segment(img, tree, threshold_tree(img, tree))
    assert mask.pixels.shape == (33, 47)
    assert set(np.unique(mask.pixels)) <= {0, 255}


def test_segment_rejects_mismatched_report():
    img = quadrant_image()
    tree = build_quadtree(img, SplitPolicy(min_side=8))
    other = build_quadtree(img, SplitPolicy(max_depth=0))
    report = threshold_tree(img, other)
    with pytest.raises(ReportTreeMismatch):
        segment(img, tree, report)


@pytest.mark.parametrize("size", [(96, 80), (32, 32)])
def test_wrong_size_image_is_a_dimension_mismatch(size):
    img = GrayImage(np.random.default_rng(38).integers(0, 256, (64, 64), dtype=np.uint8))
    tree = build_quadtree(img, SplitPolicy(min_side=8, var_threshold=0.0))
    report = threshold_tree(img, tree)
    other = GrayImage(np.zeros(size[::-1], dtype=np.uint8))
    message = f"image is {size[0]}x{size[1]}, the tree 64x64"
    with pytest.raises(DimensionMismatch, match=message):
        threshold_tree(other, tree)
    with pytest.raises(DimensionMismatch, match=message):
        segment(other, tree, report)


def test_segment_matches_where_reference():
    rng = np.random.default_rng(39)
    px = rng.integers(0, 256, size=(83, 61), dtype=np.uint8)
    img = GrayImage(px)
    tree = build_quadtree(img, SplitPolicy(min_side=4, var_threshold=100.0))
    report = threshold_tree(img, tree)
    ts = rng.integers(0, 256, size=len(report)).tolist()
    ts[:2] = [0, 255]
    report = ThresholdReport(tuple(replace(e, threshold=t) for e, t in zip(report.entries, ts)))
    expect = np.empty_like(px)
    for e in report.entries:
        r = e.rect
        sub = px[r.y0 : r.y0 + r.h, r.x0 : r.x0 + r.w]
        expect[r.y0 : r.y0 + r.h, r.x0 : r.x0 + r.w] = np.where(sub <= e.threshold, 0, 255)
    assert np.array_equal(segment(img, tree, report).pixels, expect)


def stitch_case(w, h, seed, blocky, policy):
    """A noise image, or one of flat 5 x 5 blocks (leaves of many sizes side
    by side), its tree under `policy`, and a report with a random threshold,
    0 and 255 among them, for each leaf."""
    rng = np.random.default_rng(seed)
    px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    if blocky:
        px = np.kron(px[::5, ::5], np.ones((5, 5), np.uint8))[:h, :w]
    img = GrayImage(px)
    tree = build_quadtree(img, policy)
    ts = rng.choice([0, 255, *rng.integers(0, 256, 8)], size=len(tree.leaves))
    rects = tree.rects[tree.leaves].tolist()
    entries = [
        LeafThreshold(t, 0.0, 0.0, 1.0, 0.0, 0, True, Rect(*r)) for t, r in zip(ts.tolist(), rects)
    ]
    return img, tree, ThresholdReport(tuple(entries))


@st.composite
def stitch_cases(draw):
    """Images of 4 to 64 pixels a side, or of one row or one column, under
    policies down to depth 12."""
    w, h = draw(st.integers(4, 64)), draw(st.integers(4, 64))
    w, h = draw(st.sampled_from([(w, h), (w, h), (w, 1), (1, h)]))
    policy = SplitPolicy(
        draw(st.integers(0, 12)), draw(st.integers(2, 4)), draw(st.sampled_from([0.0, 50.0, 500.0]))
    )
    return stitch_case(w, h, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()), policy)


@pytest.mark.parametrize("helper_pixels", [math.inf, 0], ids=["one thread", "two threads"])
@settings(max_examples=80)
@given(case=stitch_cases())
# odd sides: leaves of 2 and 3 pixels, so bands of 1, 2 and 3 rows
@example(case=stitch_case(61, 37, 1, False, SplitPolicy(12, 2, 0.0)))
@example(case=stitch_case(64, 63, 2, True, SplitPolicy(12, 2, 50.0)))
def test_banded_stitch_matches_per_leaf_reference(helper_pixels, case):
    img, tree, report = case
    with mock.patch.object(imgio, "_HELPER_PIXELS", helper_pixels):
        mask = segment(img, tree, report)
    assert mask.pixels.tobytes() == reference_segment(img, tree, report).tobytes()


@pytest.mark.parametrize("bad", ["swapped", "missing"])
def test_segment_rejects_a_wrong_leaf_rect(bad):
    img = quadrant_image()
    tree = build_quadtree(img, SplitPolicy(min_side=8))
    entries = list(threshold_tree(img, tree).entries)
    if bad == "swapped":  # two leaves of one size, listed in the wrong order
        entries[1], entries[2] = entries[2], entries[1]
    else:
        entries[3] = replace(entries[3], rect=None)
    with pytest.raises(ReportTreeMismatch, match="entry rect"):
        segment(img, tree, ThresholdReport(tuple(entries)))


@pytest.mark.parametrize("t", [-1, 256, 100.5, None])
def test_segment_rejects_a_threshold_outside_the_pixel_range(t):
    img = quadrant_image()
    tree = build_quadtree(img, SplitPolicy(min_side=8))
    entries = list(threshold_tree(img, tree).entries)
    entries[2] = replace(entries[2], threshold=t)
    with pytest.raises(InvalidArgument, match="whole numbers in"):
        segment(img, tree, ThresholdReport(tuple(entries)))


def test_threshold_tree_reads_node_histograms(monkeypatch):
    rng = np.random.default_rng(40)
    img = GrayImage(rng.integers(0, 256, size=(64, 48), dtype=np.uint8))
    tree = build_quadtree(img, SplitPolicy(min_side=4, var_threshold=200.0))
    expect = threshold_tree(img, tree)

    def no_binning(*args, **kwargs):
        raise AssertionError("threshold_tree binned pixels")

    monkeypatch.setattr(stratify, "bin_rows", no_binning)
    monkeypatch.setattr(np, "bincount", no_binning)  # binning under any name
    assert threshold_tree(img, tree).entries == expect.entries


def test_threshold_tree_empty_source_histogram_raises():
    rng = np.random.default_rng(41)
    img = GrayImage(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
    tree = build_quadtree(img, SplitPolicy(max_depth=3, min_side=4, var_threshold=200.0))
    assert len(threshold_tree(img, tree)) == 64  # each leaf is its own source

    last = tree.leaf_source[-1]
    assert tree.sources[last] == tree.leaves[-1]
    hists = tree.source_hists.copy()
    hists[last] = 0
    emptied = replace(tree, source_hists=hists)
    with pytest.raises(EmptyHistogram):
        threshold_tree(img, emptied)
    with pytest.raises(EmptyHistogram):
        optimize_leaf(np.zeros(256, dtype=np.int64), 0.5)


ONE_HISTOGRAM_ENTRY_POINTS = [
    pytest.param(lambda h: objective(h, 100.0), id="objective"),
    pytest.param(lambda h: optimize_leaf(h, 0.5), id="optimize_leaf"),
    pytest.param(oracle_best_threshold, id="oracle_best_threshold"),
]
ONES = np.ones(256)
NOT_A_HISTOGRAM = {
    "two rows": np.ones((2, 256)),
    "255 counts": np.ones(255),
    "257 counts": np.ones(257),
    "a negative count": np.r_[-1.0, ONES[1:]],
    "a NaN count": np.r_[np.nan, ONES[1:]],
    "an infinite count": np.r_[np.inf, ONES[1:]],
    "strings": ["1"] * 256,
    "None": [None] + [1] * 255,
}


@pytest.mark.parametrize("call", ONE_HISTOGRAM_ENTRY_POINTS)
@pytest.mark.parametrize("hist", NOT_A_HISTOGRAM.values(), ids=NOT_A_HISTOGRAM.keys())
def test_one_histogram_entry_points_take_256_finite_nonnegative_counts(call, hist):
    with pytest.raises(InvalidArgument, match="^hist"):
        call(hist)


@pytest.mark.parametrize("call", ONE_HISTOGRAM_ENTRY_POINTS)
def test_one_histogram_entry_points_take_counts_of_any_number_type(call):
    """int, uint, float and bool counts, and a list of Python ints, give one
    result; all zeros is still EmptyHistogram."""
    hist = bimodal_hist(np.random.default_rng(45))
    want = call(hist)
    for same in (hist.astype(np.uint16), hist.astype(np.float64), hist.tolist()):
        assert call(same) == want
    call(np.ones(256, dtype=bool))
    with pytest.raises(EmptyHistogram):
        call(np.zeros(256, dtype=np.int64))


COMPLEXITIES = {  # complexity: whether the three entry points take it
    "numeric str": ("0.5", False),
    "None": (None, False),
    "bool": (True, False),
    "NaN": (math.nan, False),
    "inf": (math.inf, False),
    "-inf": (-math.inf, False),
    "below 0": (-0.1, False),
    "above 1": (1.5, False),
    "beyond float64": (10**400, False),
    "int 0": (0, True),
    "int 1": (1, True),
    "0.5": (0.5, True),
    "numpy float": (np.float64(0.5), True),
}


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda h, c: objective(h, 100.0, complexity=c), id="objective"),
        pytest.param(optimize_leaf, id="optimize_leaf"),
        pytest.param(oracle_best_threshold, id="oracle_best_threshold"),
    ],
)
@pytest.mark.parametrize("complexity, ok", COMPLEXITIES.values(), ids=COMPLEXITIES.keys())
def test_one_histogram_entry_points_take_a_complexity_in_0_1(call, complexity, ok):
    """A caller's complexity is a real number in [0, 1], as `threshold_tree`
    derives it (`_complexity`); anything else is InvalidArgument, not a
    TypeError, NaN weights or weights outside [0, 1]."""
    hist = bimodal_hist(np.random.default_rng(46))
    if ok:
        assert call(hist, complexity) == call(hist, float(complexity))
    else:
        with pytest.raises(InvalidArgument, match="^complexity"):
            call(hist, complexity)


def test_float_histograms_are_not_written():
    hist = bimodal_hist(np.random.default_rng(44)).astype(np.float64)
    stack = np.stack([hist, hist[::-1]])
    kept = hist.copy(), stack.copy()
    objective(hist, 100.5)
    optimize_leaf(hist, 0.5)
    oracle_best_threshold(hist)
    _optimize_rows(stack, [0.5, 0.5], ObjectiveWeights(), SimplexParams())
    assert np.array_equal(hist, kept[0]) and np.array_equal(stack, kept[1])


def test_threshold_tree_deterministic():
    rng = np.random.default_rng(38)
    px = rng.integers(0, 256, size=(40, 40), dtype=np.uint8)
    img = GrayImage(px)
    tree = build_quadtree(img, SplitPolicy(min_side=4, var_threshold=200.0))
    r1 = threshold_tree(img, tree)
    r2 = threshold_tree(img, tree)
    assert r1.entries == r2.entries


def test_simplex_params_validation():
    with pytest.raises(ValueError):
        SimplexParams(max_iter=0)
    with pytest.raises(ValueError):
        SimplexParams(diameter_tol=0.0)
    for value in (2.5, True, "3", float("nan")):
        with pytest.raises(InvalidArgument, match="max_iter must be a whole number"):
            SimplexParams(max_iter=value)
    for value in ("1", True, None, 10**400):
        with pytest.raises(InvalidArgument, match="diameter_tol must be a number"):
            SimplexParams(diameter_tol=value)
    params = SimplexParams(max_iter=8.0)
    assert params.max_iter == 8 and type(params.max_iter) is int


def test_objective_weights_validation():
    with pytest.raises(ValueError):
        ObjectiveWeights(w_var=-0.1, w_ent=0.5)
    with pytest.raises(ValueError):
        ObjectiveWeights(w_var=0.0, w_ent=0.0)
    for field in ("w_var", "w_ent"):
        for value in ("1", True, None, 10**400):
            with pytest.raises(InvalidArgument, match=f"{field} must be a number"):
                ObjectiveWeights(**{field: value})
    for value in ("no", 0, 1, None):
        with pytest.raises(InvalidArgument, match="adaptive must be a bool"):
            ObjectiveWeights(adaptive=value)
    assert ObjectiveWeights(adaptive=np.False_).adaptive is False  # as JSON writes it


def seam_case(name):
    """(image, arguments of segment_image) of each case of the seam test."""
    rng = np.random.default_rng(39)
    if name == "quadrant":
        return quadrant_image(), (SplitPolicy(min_side=8),)
    if name == "random 33x47":
        img = GrayImage(rng.integers(0, 256, size=(47, 33), dtype=np.uint8))
        weights, params = ObjectiveWeights(0.5, 0.5, adaptive=False), SimplexParams(3, 2.0)
        return img, (SplitPolicy(min_side=4, var_threshold=100), weights, params)
    if name == "below grid":
        img = GrayImage(rng.integers(0, 256, size=(256, 256), dtype=np.uint8))
        return img, (SplitPolicy(max_depth=7, min_side=2, var_threshold=0),)
    if name == "1x1":
        return GrayImage(np.array([[7]], dtype=np.uint8)), ()
    shapes = (ShapeSpec("ellipse", 60, 50, 40, 30, 150), ShapeSpec("ellipse", 130, 100, 35, 25, 150))
    img, _ = generate_phantom(PhantomSpec(192, 144, 70, shapes, 30.0, 6.0, seed=39))
    return img, ()


@pytest.mark.parametrize("name", ["quadrant", "random 33x47", "below grid", "1x1", "defaults"])
def test_segment_image_is_the_three_stages(name):
    img, args = seam_case(name)
    """segment_image gives what build_quadtree, threshold_tree and segment
    give when called one by one with the same arguments."""
    img, args = seam_case(name)
    tree, report, mask = segment_image(img, *args)
    expect_tree = build_quadtree(img, *args[:1])
    expect_report = threshold_tree(img, expect_tree, *args[1:])
    expect_mask = segment(img, expect_tree, expect_report)
    for f in fields(tree):
        got, expect = getattr(tree, f.name), getattr(expect_tree, f.name)
        if isinstance(got, np.ndarray):
            got, expect = ((a.dtype, a.shape, a.tobytes()) for a in (got, expect))
        assert got == expect, f.name
    assert report.entries == expect_report.entries
    assert mask.pixels.shape == expect_mask.pixels.shape
    assert mask.pixels.tobytes() == expect_mask.pixels.tobytes()


def test_segment_mask_is_read_only():
    img = quadrant_image()
    tree = build_quadtree(img, SplitPolicy(min_side=8))
    mask = segment(img, tree, threshold_tree(img, tree))
    assert mask.pixels.flags.c_contiguous
    with pytest.raises(ValueError):
        mask.pixels[0, 0] = 1
