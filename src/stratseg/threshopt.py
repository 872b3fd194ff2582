"""Per-subdomain threshold selection.

The objective blends the normalized Otsu between-class variance with the
normalized Kapur two-class entropy under a complexity-adaptive weight, is
made continuous in the threshold by piecewise-linear interpolation of the
histogram's cumulative sums, and is maximized by a 1-D Nelder-Mead simplex
followed by rounding and a local integer refinement.

The cumulative tables and the knot tables are built for a block of up to
`_BLOCK_ROWS` source histograms at once, in one set of array calls over
their (rows, 256) stack (`_Tables`); `threshold_tree` stacks the histograms of all its source nodes,
and `optimize_leaf`, `objective` and `oracle_best_threshold` use a stack of
one. Each row's numbers do not depend on the other rows. The simplex and
the refinement then run per leaf.

J has two evaluation paths over the same cumulative tables. A simplex probe
(`_Tables.prober`) computes J at one real threshold in plain Python floats,
avoiding numpy's per-call overhead, and returns the same bits as the numpy
formula on a 0-d array: the square is written `** 2`, which like numpy's
float64 scalar power calls C pow() (`x * x`, which the array square
computes, can differ in the last bit), and the logs go through `np.log`,
because `math.log` differs in the last bit on a few inputs. It reads the
tables through the row's memoryview, whose items are Python floats. The
knot table (`_Tables.knots`) computes J at the 256 integer knots of every
row in one array call, straight from the tables: at a knot the
interpolation adds 0 * diff, so it needs no clip, floor or interpolation.
Refinement and the exhaustive 256-candidate oracle, which backs every
optimizer claim, read that table."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import EmptyHistogram, InvalidArgument, ReportTreeMismatch
from .imgio import GrayImage, Rect, _adopt
from .stratify import QuadTree, RegionNode, leaves, region_complexity

__all__ = [
    "ObjectiveWeights",
    "SimplexParams",
    "LeafThreshold",
    "ThresholdReport",
    "objective",
    "nelder_mead_1d",
    "optimize_leaf",
    "oracle_best_threshold",
    "threshold_tree",
    "segment",
]

_LN256 = math.log(256.0)
_BLOCK_ROWS = 32  # histograms per table pass: bounds the (rows, 256) temporaries


@dataclass(frozen=True)
class ObjectiveWeights:
    """Blend weights for the variance and entropy criteria.

    With `adaptive` set, the entropy weight is scaled by the region's
    complexity (entropy/8) and the variance weight takes the remainder, so
    flat regions rely on the variance criterion alone.
    """

    w_var: float = 0.7
    w_ent: float = 0.3
    adaptive: bool = True

    def __post_init__(self):
        s = self.w_var + self.w_ent
        if not (self.w_var >= 0 and self.w_ent >= 0 and 0 < s < math.inf):
            raise InvalidArgument("weights must be nonnegative with finite positive sum")

    def effective(self, complexity: float) -> tuple:
        """(w_var, w_ent) actually applied; always nonnegative, summing to 1."""
        s = self.w_var + self.w_ent
        wv, we = self.w_var / s, self.w_ent / s
        if self.adaptive:
            we = we * complexity
            wv = 1.0 - we
        return wv, we


@dataclass(frozen=True)
class SimplexParams:
    """Stopping rule of the simplex: iteration cap and vertex-gap tolerance."""

    max_iter: int = 200
    diameter_tol: float = 0.5

    def __post_init__(self):
        if self.max_iter < 1:
            raise InvalidArgument("max_iter must be >= 1")
        if not self.diameter_tol > 0:
            raise InvalidArgument("diameter_tol must be positive")


@dataclass(frozen=True)
class LeafThreshold:
    """One per-leaf record of the threshold report."""

    threshold: int
    continuous_optimum: float
    objective_value: float
    w_var: float
    w_ent: float
    iterations: int
    converged: bool
    rect: Optional[Rect] = None
    # region whose histogram the threshold was optimized on; None means the
    # leaf's own histogram, otherwise the nearest heterogeneous ancestor
    source_rect: Optional[Rect] = None


@dataclass(frozen=True)
class ThresholdReport:
    entries: tuple

    def __len__(self):
        return len(self.entries)


class _Tables:
    """Cumulative-sum tables of a (rows, 256) stack of histograms, one row
    each, giving a continuous extension of the objective."""

    def __init__(self, hists):
        counts = np.atleast_2d(np.asarray(hists, dtype=np.float64))
        n = counts.sum(axis=1)
        if np.any(n <= 0):
            raise EmptyHistogram("histogram has zero total count")
        levels = np.arange(256, dtype=np.float64)
        self.n = n
        self.cum_w = np.cumsum(counts, axis=1)
        self.cum_s = np.cumsum(counts * levels, axis=1)
        p = counts / n[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.where(p > 0, -p * np.log(p), 0.0)
        self.cum_a = np.cumsum(a, axis=1)
        self.a_tot = self.cum_a[:, -1]
        self.s_tot = self.cum_s[:, -1]
        self.mean = self.s_tot / n
        self.var_tot = (counts * (levels - self.mean[:, None]) ** 2).sum(axis=1) / n

    def _interp(self, table, t):
        # piecewise-linear between integer knots; exact at the knots
        k = np.floor(t).astype(np.int64)
        k = np.clip(k, 0, 255)
        frac = t - k
        hi = np.minimum(k + 1, 255)
        return table[k] + frac * (table[hi] - table[k])

    def _j(self, rows, w, s, a, w_var, w_ent) -> np.ndarray:
        """J from arrays of interpolated cumulative weight, sum and entropy;
        `rows` indexes the per-row totals so that they broadcast against w."""
        n, s_tot, a_tot = self.n[rows], self.s_tot[rows], self.a_tot[rows]
        var_tot = self.var_tot[rows]
        om0 = w / n
        om1 = 1.0 - om0
        # lanes that divide by zero or take log(0) are dropped by np.where
        with np.errstate(divide="ignore", invalid="ignore"):
            mu0 = np.where(w > 0, s / w, 0.0)
            mu1 = np.where(om1 > 0, (s_tot - s) / (n - w), 0.0)
            bcv = om0 * om1 * (mu0 - mu1) ** 2
            v = np.where(var_tot > 0, bcv / var_tot, 0.0)
            h0 = np.where(om0 > 0, np.log(om0) + a / om0, 0.0)
            h1 = np.where(om1 > 0, np.log(om1) + (a_tot - a) / om1, 0.0)
        e = np.clip((h0 + h1) / (2.0 * _LN256), 0.0, 1.0)
        return w_var * v + w_ent * e

    def evaluate(self, i: int, t, w_var: float, w_ent: float) -> np.ndarray:
        """J of row i on an array of t; t is clamped into [0, 255]."""
        t = np.clip(np.asarray(t, dtype=np.float64), 0.0, 255.0)
        return self._j(
            i,
            self._interp(self.cum_w[i], t),
            self._interp(self.cum_s[i], t),
            self._interp(self.cum_a[i], t),
            w_var,
            w_ent,
        )

    def knots(self, w_var, w_ent) -> np.ndarray:
        """(rows, 256) J at the integer knots, where the interpolation is the
        table; the weights are scalars or (rows, 1) columns."""
        return self._j(np.s_[:, None], self.cum_w, self.cum_s, self.cum_a, w_var, w_ent)

    def prober(self, i: int, w_var: float, w_ent: float) -> Callable[[float], float]:
        """J of row i at one real t (clamped into [0, 255]; NaN gives NaN) in
        plain floats, bit-identical to the array formula on a 0-d array (see
        the module docstring for `** 2`, np.log and the memoryviews)."""
        lw, ls, la = self.cum_w[i].data, self.cum_s[i].data, self.cum_a[i].data
        n, s_tot, a_tot, var_tot = (
            float(x[i]) for x in (self.n, self.s_tot, self.a_tot, self.var_tot)
        )

        def probe(t: float) -> float:
            if t != t:
                return math.nan
            t = 0.0 if t <= 0.0 else min(t, 255.0)
            k = int(t)
            frac = t - k
            hi = k + 1 if k < 255 else 255
            w = lw[k] + frac * (lw[hi] - lw[k])
            s = ls[k] + frac * (ls[hi] - ls[k])
            a = la[k] + frac * (la[hi] - la[k])
            om0 = w / n
            om1 = 1.0 - om0
            mu0 = s / w if w > 0 else 0.0
            mu1 = (s_tot - s) / (n - w) if om1 > 0 else 0.0
            bcv = om0 * om1 * (mu0 - mu1) ** 2
            v = bcv / var_tot if var_tot > 0 else 0.0
            h0 = float(np.log(om0)) + a / om0 if om0 > 0 else 0.0
            h1 = float(np.log(om1)) + (a_tot - a) / om1 if om1 > 0 else 0.0
            e = (h0 + h1) / (2.0 * _LN256)
            e = 0.0 if e <= 0.0 else min(e, 1.0)  # np.clip: -0.0 -> 0.0, NaN kept
            return w_var * v + w_ent * e

        return probe


def objective(hist, t, weights: ObjectiveWeights = ObjectiveWeights(), complexity: float = 1.0):
    """Weighted threshold objective J(t); accepts scalar or array t."""
    tab = _Tables(hist)
    wv, we = weights.effective(complexity)
    if np.ndim(t) == 0:
        return tab.prober(0, wv, we)(float(t))
    return tab.evaluate(0, t, wv, we)


def nelder_mead_1d(
    f: Callable[[float], float], x0: float, params: SimplexParams = SimplexParams()
):
    """Maximize f with a 2-vertex Nelder-Mead simplex started at {x0, x0+16}.

    Reflection 1, expansion 2 and contraction 0.5 are fixed. With two
    vertices the contraction point is also the shrink point, so a contraction
    always replaces the worst vertex. Returns (x_best, f_best, iterations,
    converged).
    """
    verts = [float(x0), float(x0) + 16.0]
    fvals = [f(verts[0]), f(verts[1])]
    iters = 0
    while iters < params.max_iter and abs(verts[0] - verts[1]) >= params.diameter_tol:
        if fvals[1] > fvals[0]:
            verts.reverse()
            fvals.reverse()
        best, worst = verts
        fb, fw = fvals
        xr = best + (best - worst)
        fr = f(xr)
        if fr > fb:
            xe = best + 2.0 * (best - worst)
            fe = f(xe)
            if fe > fr:
                verts[1], fvals[1] = xe, fe
            else:
                verts[1], fvals[1] = xr, fr
        elif fr > fw:
            verts[1], fvals[1] = xr, fr
        else:
            xc = best + 0.5 * (worst - best)
            verts[1], fvals[1] = xc, f(xc)
        iters += 1
    if fvals[1] > fvals[0]:
        verts.reverse()
        fvals.reverse()
    converged = abs(verts[0] - verts[1]) < params.diameter_tol
    return verts[0], fvals[0], iters, converged


def _refine_integer(j: np.ndarray, t_star: float) -> int:
    """Round, scan a +-3 window of the knot table j (smallest-t ties), then
    hill-climb to a strict integer local maximum."""
    t0 = int(np.floor(min(max(t_star, 0.0), 255.0) + 0.5))
    lo, hi = max(0, t0 - 3), min(255, t0 + 3)
    t = lo + int(np.argmax(j[lo : hi + 1]))  # first max = smallest tie
    while True:
        if t < 255 and j[t + 1] > j[t]:
            t += 1
        elif t > 0 and j[t - 1] > j[t]:
            t -= 1
        else:
            return t


def _optimize_rows(hists, complexities, weights: ObjectiveWeights, params: SimplexParams) -> list:
    """One LeafThreshold per histogram of the sequence `hists`.

    The tables and knot tables are built for `_BLOCK_ROWS` rows at a time;
    the simplex (in plain floats) and the refinement run per row.
    """
    out = []
    for lo in range(0, len(hists), _BLOCK_ROWS):
        tab = _Tables(hists[lo : lo + _BLOCK_ROWS])
        eff = [weights.effective(c) for c in complexities[lo : lo + _BLOCK_ROWS]]
        cols = np.array(eff)
        j = tab.knots(cols[:, :1], cols[:, 1:])
        for i, ((wv, we), mean) in enumerate(zip(eff, tab.mean.tolist())):
            x_star, _, iters, converged = nelder_mead_1d(tab.prober(i, wv, we), mean, params)
            t = _refine_integer(j[i], x_star)
            out.append(
                LeafThreshold(
                    threshold=t,
                    continuous_optimum=float(x_star),
                    objective_value=float(j[i, t]),
                    w_var=wv,
                    w_ent=we,
                    iterations=iters,
                    converged=converged,
                )
            )
    return out


def optimize_leaf(
    hist,
    complexity: float,
    weights: ObjectiveWeights = ObjectiveWeights(),
    params: SimplexParams = SimplexParams(),
) -> LeafThreshold:
    """Simplex search from the region mean, then integer refinement.

    The returned threshold is always an integer local maximum of J over its
    integer neighbors, and objective_value is J's knot-table entry there.
    """
    return _optimize_rows([hist], [complexity], weights, params)[0]


def oracle_best_threshold(
    hist, complexity: float = 1.0, weights: ObjectiveWeights = ObjectiveWeights()
):
    """Exhaustive argmax of J over all 256 integer thresholds (smallest-t tie)."""
    tab = _Tables(hist)
    wv, we = weights.effective(complexity)
    j = tab.knots(wv, we)[0]
    t = int(np.argmax(j))
    return t, float(j[t])


def _leaf_sources(tree: QuadTree):
    """Pair each leaf with the node whose histogram its threshold comes from.

    Homogeneous leaves (variance at or below the split threshold) inherit
    from their nearest split ancestor, i.e. the parent: the quadtree gives
    every subdomain a coarser level whose statistics still resolve the
    foreground/background mixture. Heterogeneous leaves (stopped by the
    depth or size caps) use their own histogram.
    """
    thresh = tree.policy.var_threshold
    out = []

    def visit(node: RegionNode, ancestor):
        if node.is_leaf:
            if node.stats.variance > thresh or ancestor is None:
                out.append((node, node))
            else:
                out.append((node, ancestor))
        else:
            for child in node.children:
                visit(child, node)

    visit(tree.root, None)
    return out


def threshold_tree(
    img: GrayImage,
    tree: QuadTree,
    weights: ObjectiveWeights = ObjectiveWeights(),
    params: SimplexParams = SimplexParams(),
) -> ThresholdReport:
    """Optimize one threshold per leaf, in deterministic leaf order.

    `tree` is `build_quadtree(img, ...)`; each threshold is optimized on the
    histogram its source node keeps, so no pixel is binned again here.
    """
    pairs = _leaf_sources(tree)
    sources = list({id(source): source for _, source in pairs}.values())
    found = _optimize_rows(
        [source.hist for source in sources],
        [region_complexity(source) for source in sources],
        weights,
        params,
    )
    by_source = {id(source): base for source, base in zip(sources, found)}
    entries = [
        replace(
            by_source[id(source)],
            rect=leaf.rect,
            source_rect=None if source is leaf else source.rect,
        )
        for leaf, source in pairs
    ]
    return ThresholdReport(tuple(entries))


def segment(img: GrayImage, tree: QuadTree, report: ThresholdReport) -> GrayImage:
    """Stitch the per-leaf binarizations into a full-size {0, 255} mask."""
    leaf_list = leaves(tree)
    if len(leaf_list) != len(report.entries):
        raise ReportTreeMismatch(
            f"{len(report.entries)} entries for {len(leaf_list)} leaves"
        )
    mask = np.zeros((img.height, img.width), dtype=np.uint8)
    # foreground flags are written in place as 0/1 bytes, then scaled once
    flags = mask.view(bool)
    for leaf, entry in zip(leaf_list, report.entries):
        if entry.rect != leaf.rect:
            raise ReportTreeMismatch(f"entry rect {entry.rect} != leaf rect {leaf.rect}")
        r = leaf.rect
        rows, cols = slice(r.y0, r.y0 + r.h), slice(r.x0, r.x0 + r.w)
        np.greater(img.pixels[rows, cols], entry.threshold, out=flags[rows, cols])
    mask *= 255
    return _adopt(mask)
