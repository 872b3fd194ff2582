"""Per-subdomain threshold selection.

The objective blends the normalized Otsu between-class variance with the
normalized Kapur two-class entropy under a complexity-adaptive weight, is
made continuous in the threshold by piecewise-linear interpolation of the
histogram's cumulative sums, and is maximized by a 1-D Nelder-Mead simplex
followed by rounding and a local integer refinement.

Source histograms are optimized in blocks of up to `_BLOCK_ROWS` rows. A
block's cumulative tables are built in one set of array calls over its
(rows, levels) stack (`_Tables`), whose width sets the knots, and the
simplex and the refinement then run in lockstep over the block's rows: each
step is one set of array calls over the rows still active, with per-row
masks for each row's branch, and a row retires when it is done (`_simplex`,
`_refine`). Each row's numbers do not depend on the other rows.
`threshold_tree` passes the histograms of all its source nodes;
`optimize_leaf` and `objective` are the one-row case. The tree decides which
leaves there are, their order and each leaf's source row; `threshold_tree`
only reads that plan.

There is one formula for J (`_Tables.evaluate`), over values gathered from
the cumulative tables: simplex probes and knots share it, and it squares by
multiplication. Logs are array `np.log`, which gives the bits of scalar
`np.log` (`math.log` differs on a few inputs); a test pins it. The
refinement reads J at the knots of a +-3 window around each row's rounded
optimum, and then one knot at a time while a row still climbs; at a knot the
interpolation adds 0 * diff (`_Tables.at_knots`). The exhaustive
`oracle_best_threshold`, which backs every optimizer claim, is `objective`
at all `imgio.LEVELS` knots.

`segment` stitches the mask in full-width row bands, cut at every leaf's
top and bottom edge: each band is compared against one per-row vector of
its leaves' thresholds, and the bands run in two halves, on two threads for
a large image."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyHistogram,
    InvalidArgument,
    ReportTreeMismatch,
    real_array,
    real_number,
    whole_number,
)
from .imgio import LEVELS, GrayImage, Rect, _adopt, _in_halves
from .stratify import QuadTree

__all__ = [
    "ObjectiveWeights",
    "SimplexParams",
    "LeafThreshold",
    "ThresholdReport",
    "objective",
    "optimize_leaf",
    "oracle_best_threshold",
    "threshold_tree",
    "segment",
]

_BLOCK_ROWS = 256  # rows per table pass and lockstep group: bounds the temporaries


@dataclass(frozen=True)
class ObjectiveWeights:
    """Blend weights for the variance and entropy criteria.

    With `adaptive` set, the entropy weight is scaled by the region's
    complexity (entropy / log2 LEVELS, a share of the largest entropy) and
    the variance weight takes the remainder, so flat regions rely on the
    variance criterion alone.
    """

    w_var: float = 0.7
    w_ent: float = 0.3
    adaptive: bool = True

    def __post_init__(self):
        s = real_number("w_var", self.w_var) + real_number("w_ent", self.w_ent)
        if not (self.w_var >= 0 and self.w_ent >= 0 and 0 < s < math.inf):
            raise InvalidArgument("weights must be nonnegative with finite positive sum")
        if not isinstance(self.adaptive, (bool, np.bool_)):
            raise InvalidArgument(f"adaptive must be a bool, got {self.adaptive!r}")
        object.__setattr__(self, "adaptive", bool(self.adaptive))

    def effective(self, complexity) -> tuple:
        """(w_var, w_ent) actually applied; always nonnegative, summing to 1.
        Elementwise over an array of complexities (non-adaptive weights stay
        scalars)."""
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
        object.__setattr__(self, "max_iter", whole_number("max_iter", self.max_iter))
        if self.max_iter < 1:
            raise InvalidArgument("max_iter must be >= 1")
        if not real_number("diameter_tol", self.diameter_tol) > 0:
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
    """Cumulative-sum tables of a (rows, levels) stack of histograms, one row
    each, giving a continuous extension of the objective. The knots are 0 to
    `top` = levels - 1, and the Kapur entropy is normalized by log(levels)."""

    def __init__(self, hists):
        counts = np.array(hists, dtype=np.float64, ndmin=2)  # a copy: written in place below
        n = counts.sum(axis=1)
        if np.any(n <= 0):
            raise EmptyHistogram("histogram has zero total count")
        width = counts.shape[1]
        levels = np.arange(width, dtype=np.float64)
        self.n, self.top, self.ln_levels = n, width - 1, math.log(width)
        # the three tables interleaved, so one gather reads all three; the
        # (rows, levels) steps below work in place to bound the temporaries
        self.cum = np.empty(counts.shape + (3,))
        self.cum_w, self.cum_s, self.cum_a = (self.cum[..., i] for i in range(3))
        np.cumsum(counts, axis=1, out=self.cum_w)
        np.cumsum(np.multiply(counts, levels, out=self.cum_s), axis=1, out=self.cum_s)
        self.s_tot = self.cum_s[:, -1]
        self.mean = self.s_tot / n
        dev = levels - self.mean[:, None]
        np.square(dev, out=dev)
        dev *= counts
        self.var_tot = dev.sum(axis=1) / n
        del dev
        p = np.divide(counts, n[:, None], out=counts)
        occupied = p > 0
        q = p[occupied]
        # p becomes -p log p, on the occupied levels only: log(0) takes a slow path
        q *= np.log(q)
        p[occupied] = np.negative(q, out=q)
        np.cumsum(p, axis=1, out=self.cum_a)
        self.a_tot = self.cum_a[:, -1]

    def _at(self, rows, t):
        """Interpolated (w, s, a) of `rows` at t, clamped into [0, top];
        piecewise-linear between integer knots and exact at them."""
        t = np.clip(t, 0.0, self.top)
        k = t.astype(np.int64)  # t >= 0, so truncation is floor
        frac = (t - k)[..., None]
        lo, hi = self.cum[rows, k], self.cum[rows, np.minimum(k + 1, self.top)]
        v = lo + frac * (hi - lo)
        return v[..., 0], v[..., 1], v[..., 2]

    def evaluate(self, rows, t, w_var, w_ent) -> np.ndarray:
        """J of `rows` (a row, or an index that broadcasts against t) on an
        array of t; t is clamped into [0, top]."""
        w, s, a = self._at(rows, np.asarray(t, dtype=np.float64))
        n, s_tot, a_tot = self.n[rows], self.s_tot[rows], self.a_tot[rows]
        var_tot = self.var_tot[rows]
        om0 = w / n
        om1 = 1.0 - om0
        # lanes that divide by zero or take log(0) are dropped by np.where
        with np.errstate(divide="ignore", invalid="ignore"):
            mu0 = np.where(w > 0, s / w, 0.0)
            mu1 = np.where(om1 > 0, (s_tot - s) / (n - w), 0.0)
            bcv = om0 * om1 * np.square(mu0 - mu1)
            v = np.where(var_tot > 0, bcv / var_tot, 0.0)
            h0 = np.where(om0 > 0, np.log(om0) + a / om0, 0.0)
            h1 = np.where(om1 > 0, np.log(om1) + (a_tot - a) / om1, 0.0)
        e = np.clip((h0 + h1) / (2.0 * self.ln_levels), 0.0, 1.0)
        return w_var * v + w_ent * e

    def at_knots(self, rows, k, w_var, w_ent) -> np.ndarray:
        """J of `rows` at integer knots k; -inf where k is outside [0, top]."""
        return np.where((k >= 0) & (k <= self.top), self.evaluate(rows, k, w_var, w_ent), -np.inf)


def _histogram(hist, complexity) -> np.ndarray:
    """`hist` as one histogram, LEVELS finite, nonnegative counts, given with a
    `complexity` in [0, 1]; InvalidArgument otherwise. All zeros is left to
    `_Tables` (EmptyHistogram)."""
    if not 0 <= real_number("complexity", complexity) <= 1:  # NaN fails too
        raise InvalidArgument(f"complexity must lie in [0, 1], got {float(complexity)}")
    h = real_array("hist", hist)
    if h.shape != (LEVELS,):
        raise InvalidArgument(f"hist must be {LEVELS} counts, got shape {h.shape}")
    if not np.all((h >= 0) & (h < math.inf)):  # NaN fails too
        raise InvalidArgument("hist counts must be finite and nonnegative")
    return h


def objective(hist, t, weights: ObjectiveWeights = ObjectiveWeights(), complexity: float = 1.0):
    """Weighted threshold objective J(t); accepts scalar or array t, and
    gives NaN where t is NaN."""
    tab = _Tables(_histogram(hist, complexity))
    wv, we = weights.effective(complexity)
    t = np.asarray(real_array("t", t), dtype=np.float64)
    nan = np.isnan(t)
    j = np.where(nan, math.nan, tab.evaluate(0, np.where(nan, 0.0, t), wv, we))
    return j.item() if j.ndim == 0 else j


def _simplex(tab: _Tables, w_var, w_ent, params: SimplexParams):
    """A 2-vertex Nelder-Mead maximization of J over all rows of `tab` in
    lockstep; the weights are (rows, 1) columns.

    Row i starts from {mean_i, mean_i + 16}. Reflection 1, expansion 2 and
    contraction 0.5 are fixed; with two vertices the contraction point is
    also the shrink point, so a contraction always replaces the worst
    vertex. Each iteration probes the reflection, expansion and contraction
    points of every active row in one call, and per-row masks take the
    branch a scalar loop would; the probes are pure, so the points a row
    does not take change nothing. A row retires when its vertex gap falls
    below `diameter_tol` or at `max_iter`. Returns arrays (x_best,
    iterations, converged).
    """
    v0 = tab.mean.copy()  # retired rows are written into it
    v1 = v0 + 16.0
    f0, f1 = tab.evaluate(np.arange(len(v0))[:, None], np.stack([v0, v1], axis=1), w_var, w_ent).T
    iters = np.zeros(len(v0), dtype=np.int64)
    idx = np.flatnonzero(np.abs(v0 - v1) >= params.diameter_tol)
    b, w, fb, fw = v0[idx], v1[idx], f0[idx], f1[idx]  # the active rows' vertices
    for it in range(1, params.max_iter + 1):
        if not idx.size:
            break
        swap = fw > fb
        b, w = np.where(swap, w, b), np.where(swap, b, w)
        fb, fw = np.where(swap, fw, fb), np.where(swap, fb, fw)
        # reflection, expansion and contraction; b - d/2 is b + (w - b)/2 exactly
        pts = b[:, None] + (b - w)[:, None] * np.array([1.0, 2.0, -0.5])
        xr, xe, xc = pts.T
        fr, fe, fc = tab.evaluate(idx[:, None], pts, w_var[idx], w_ent[idx]).T
        up = fr > fb
        take_e = up & (fe > fr)
        take_c = ~up & ~(fr > fw)
        w = np.where(take_e, xe, np.where(take_c, xc, xr))
        fw = np.where(take_e, fe, np.where(take_c, fc, fr))
        iters[idx] = it
        keep = (np.abs(b - w) >= params.diameter_tol) & (it < params.max_iter)
        if not keep.all():
            gone = ~keep
            done = idx[gone]
            v0[done], v1[done], f0[done], f1[done] = b[gone], w[gone], fb[gone], fw[gone]
            idx, b, w, fb, fw = idx[keep], b[keep], w[keep], fb[keep], fw[keep]
    return np.where(f1 > f0, v1, v0), iters, np.abs(v0 - v1) < params.diameter_tol


def _refine(tab: _Tables, x_star: np.ndarray, w_var, w_ent):
    """Round each row's optimum, take the first (smallest-t) max of J over
    a +-3 knot window, then hill-climb to a strict integer local maximum.
    The weights are (rows, 1) columns. Returns (thresholds, J there)."""
    rows = np.arange(len(x_star))
    t0 = np.floor(np.clip(x_star, 0.0, tab.top) + 0.5).astype(np.int64)
    window = t0[:, None] + np.arange(-3, 4)
    j = tab.at_knots(rows[:, None], window, w_var, w_ent)
    pick = np.argmax(j, axis=1)
    t, jt = window[rows, pick], j[rows, pick]
    # the first max beats every knot before it and ties or beats every knot
    # after it, so only a window end can move, and only outward
    idx = np.flatnonzero((pick == 0) | (pick == 6))
    step = np.where(pick[idx] == 6, 1, -1)
    while idx.size:
        r = idx[:, None]
        nb = tab.at_knots(r, (t[idx] + step)[:, None], w_var[idx], w_ent[idx])[:, 0]
        up = nb > jt[idx]
        idx, step, nb = idx[up], step[up], nb[up]
        t[idx] += step
        jt[idx] = nb
    return t, jt


def _optimize_rows(hists, complexities, weights: ObjectiveWeights, params: SimplexParams) -> list:
    """One tuple of the LeafThreshold fields `threshold` to `converged` per
    histogram of the sequence `hists`.

    Up to `_BLOCK_ROWS` rows at a time share one table pass, one lockstep
    simplex and one lockstep refinement.
    """
    complexities = np.asarray(complexities, dtype=np.float64)
    out = []
    for lo in range(0, len(hists), _BLOCK_ROWS):
        tab = _Tables(hists[lo : lo + _BLOCK_ROWS])
        c = complexities[lo : lo + _BLOCK_ROWS]
        wv, we = (np.broadcast_to(w, c.shape)[:, None] for w in weights.effective(c))
        x_star, iters, converged = _simplex(tab, wv, we, params)
        t, jt = _refine(tab, x_star, wv, we)
        out += zip(t.tolist(), x_star.tolist(), jt.tolist(), wv[:, 0].tolist(),
                   we[:, 0].tolist(), iters.tolist(), converged.tolist())
    return out


def optimize_leaf(
    hist,
    complexity: float,
    weights: ObjectiveWeights = ObjectiveWeights(),
    params: SimplexParams = SimplexParams(),
) -> LeafThreshold:
    """Simplex search from the region mean, then integer refinement.

    The returned threshold is always an integer local maximum of J over its
    integer neighbors, and objective_value is J at that knot.
    """
    h = _histogram(hist, complexity)
    return LeafThreshold(*_optimize_rows([h], [complexity], weights, params)[0])


def oracle_best_threshold(
    hist, complexity: float = 1.0, weights: ObjectiveWeights = ObjectiveWeights()
):
    """Exhaustive argmax of J over all LEVELS integer thresholds (smallest-t tie)."""
    j = objective(hist, np.arange(LEVELS, dtype=np.float64), weights, complexity)
    t = int(np.argmax(j))
    return t, float(j[t])


def _check_dims(img: GrayImage, tree: QuadTree):
    if (img.width, img.height) != tree.image_dims:
        tw, th = tree.image_dims
        raise DimensionMismatch(f"image is {img.width}x{img.height}, the tree {tw}x{th}")


def threshold_tree(
    img: GrayImage,
    tree: QuadTree,
    weights: ObjectiveWeights = ObjectiveWeights(),
    params: SimplexParams = SimplexParams(),
) -> ThresholdReport:
    """Optimize one threshold per leaf, in deterministic leaf order.

    `tree` is `build_quadtree(img, ...)`; each threshold is optimized on the
    histogram the tree keeps for the leaf's source node, so no pixel is
    binned again here.
    """
    _check_dims(img, tree)
    complexities = tree.entropy_bits[tree.sources] / math.log2(LEVELS)
    found = _optimize_rows(tree.source_hists, complexities, weights, params)
    rects, sources = tree.rects.tolist(), tree.sources.tolist()
    entries = []
    for i, r in zip(tree.leaves.tolist(), tree.leaf_source.tolist()):
        source_rect = None if sources[r] == i else Rect(*rects[sources[r]])
        entries.append(LeafThreshold(*found[r], Rect(*rects[i]), source_rect))
    return ThresholdReport(tuple(entries))


def segment(img: GrayImage, tree: QuadTree, report: ThresholdReport) -> GrayImage:
    """Stitch the per-leaf binarizations into a full-size {0, 255} mask.

    Every leaf's top and bottom edge cuts the image into row bands, so the
    leaves that cross a band tile its full width. Each band is compared
    against one row of its leaves' thresholds, and the bands run in two
    halves, on two threads for a large image (`imgio._in_halves`). A
    threshold must be a whole number in [0, LEVELS - 1]: the rows have the
    pixels' dtype."""
    _check_dims(img, tree)
    if len(tree.leaves) != len(report.entries):
        raise ReportTreeMismatch(f"{len(report.entries)} entries for {len(tree.leaves)} leaves")
    rects = tree.rects[tree.leaves]
    for e, (x0, y0, w, h) in zip(report.entries, rects.tolist()):
        r = e.rect
        if r is None or (r.x0, r.y0, r.w, r.h) != (x0, y0, w, h):
            raise ReportTreeMismatch(f"entry rect {r} != leaf rect {Rect(x0, y0, w, h)}")
    t = np.array([e.threshold for e in report.entries])
    if t.dtype.kind not in "iu" or t.min() < 0 or t.max() > LEVELS - 1:
        raise InvalidArgument(f"leaf thresholds must be whole numbers in [0, {LEVELS - 1}]")
    x0, y0, w, h = rects.T
    cuts = np.unique(np.concatenate([y0, y0 + h]))
    # one (band, leaf) pair for each band a leaf crosses, in (band, x0) order
    first = np.searchsorted(cuts, y0)
    span = np.searchsorted(cuts, y0 + h) - first
    leaf = np.repeat(np.arange(len(rects)), span)
    band = np.arange(len(leaf)) - np.repeat(np.cumsum(span) - span - first, span)
    leaf = leaf[np.lexsort((x0[leaf], band))]
    rows = np.repeat(t[leaf].astype(img.pixels.dtype), w[leaf]).reshape(len(cuts) - 1, img.width)
    # (first row, end row, band) runs; the halves meet at the middle row,
    # which may cut a band in two
    mid = img.height // 2
    edges = np.union1d(cuts, mid).tolist()
    runs = list(zip(edges, edges[1:], np.searchsorted(cuts, edges[:-1], side="right") - 1))
    mask = np.empty((img.height, img.width), dtype=np.uint8)
    flags, top = mask.view(bool), np.iinfo(mask.dtype).max

    def stitch(part):
        for a, b, k in part:
            np.greater(img.pixels[a:b], rows[k], out=flags[a:b])
            mask[a:b] *= top  # while the run is still in cache

    half = edges.index(mid)
    _in_halves(lambda: stitch(runs[:half]), lambda: stitch(runs[half:]), img.pixels.size)
    return _adopt(mask)
