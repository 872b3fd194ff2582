"""Test-only reference: the threshold objective and the per-leaf optimizer
in their scalar forms.

`ReferenceTables.evaluate` is the former `threshopt._Tables.evaluate`, which
computed J at a scalar threshold with numpy operations on 0-d arrays.
`reference_probe`, `reference_nelder_mead`, `reference_refine` and
`reference_optimize_leaf` are the former per-leaf optimizer: J at one real
threshold in plain Python floats, the scalar simplex loop, and the integer
refinement over the 256-knot table. The library now runs the simplex and the
refinement in lockstep over a block of rows (`threshopt._optimize_rows`);
the tests compare it against this code bit for bit.
"""

import functools
import math

import numpy as np

from stratseg.threshopt import LeafThreshold, ObjectiveWeights, SimplexParams

_LN256 = math.log(256.0)


class ReferenceTables:
    def __init__(self, hist):
        counts = np.asarray(hist, dtype=np.float64)
        n = counts.sum()
        if n <= 0:
            raise ValueError("histogram has zero total count")
        levels = np.arange(256, dtype=np.float64)
        self.n = n
        self.cum_w = np.cumsum(counts)
        self.cum_s = np.cumsum(counts * levels)
        p = counts / n
        a = np.where(p > 0, -p * np.log(np.where(p > 0, p, 1.0)), 0.0)
        self.cum_a = np.cumsum(a)
        self.a_tot = self.cum_a[-1]
        self.s_tot = self.cum_s[-1]
        self.mean = self.s_tot / n
        self.var_tot = float((counts * (levels - self.mean) ** 2).sum() / n)
        self._knots = {}

    @functools.cached_property
    def scalars(self):
        """The tables as Python floats: (cum_w, cum_s, cum_a lists, n, s_tot)."""
        lists = (self.cum_w.tolist(), self.cum_s.tolist(), self.cum_a.tolist())
        return lists + (float(self.n), float(self.s_tot))

    def knot_table(self, w_var, w_ent):
        """J at the 256 integer knots (cached per weight pair)."""
        if (w_var, w_ent) not in self._knots:
            self._knots[w_var, w_ent] = self.evaluate(np.arange(256.0), w_var, w_ent)
        return self._knots[w_var, w_ent]

    def _interp(self, table, t):
        k = np.floor(t).astype(np.int64)
        k = np.clip(k, 0, 255)
        frac = t - k
        hi = np.minimum(k + 1, 255)
        return table[k] + frac * (table[hi] - table[k])

    def evaluate(self, t, w_var, w_ent):
        """J(t) for scalar or array t; t is clamped into [0, 255]."""
        t_arr = np.clip(np.asarray(t, dtype=np.float64), 0.0, 255.0)
        w = self._interp(self.cum_w, t_arr)
        s = self._interp(self.cum_s, t_arr)
        a = self._interp(self.cum_a, t_arr)
        om0 = w / self.n
        om1 = 1.0 - om0
        with np.errstate(divide="ignore", invalid="ignore"):
            mu0 = np.where(w > 0, s / np.where(w > 0, w, 1.0), 0.0)
            mu1 = np.where(
                om1 > 0, (self.s_tot - s) / np.where(om1 > 0, self.n - w, 1.0), 0.0
            )
            bcv = om0 * om1 * np.square(mu0 - mu1)
            v = bcv / self.var_tot if self.var_tot > 0 else np.zeros_like(bcv)
            h0 = np.where(om0 > 0, np.log(np.where(om0 > 0, om0, 1.0)) + a / np.where(om0 > 0, om0, 1.0), 0.0)
            rest = self.a_tot - a
            h1 = np.where(om1 > 0, np.log(np.where(om1 > 0, om1, 1.0)) + rest / np.where(om1 > 0, om1, 1.0), 0.0)
        e = np.clip((h0 + h1) / (2.0 * _LN256), 0.0, 1.0)
        j = w_var * v + w_ent * e
        return float(j) if np.isscalar(t) or np.ndim(t) == 0 else j


def probe_terms(tables, t):
    """(mu0 - mu1, om0, om1, a) of the plain-float probe at one real t: the
    values it squares, logs and divides."""
    lw, ls, la, n, s_tot = tables.scalars
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
    return mu0 - mu1, om0, om1, a


def reference_probe(tables, w_var, w_ent):
    """J of the tables' histogram at one real t (clamped into [0, 255]; NaN
    gives NaN) in plain floats. The square is `d * d`, an IEEE multiply like
    the library's `np.square`, and the logs go through `np.log`, because
    `math.log` differs in the last bit on a few inputs."""
    a_tot, var_tot = float(tables.a_tot), tables.var_tot

    def probe(t: float) -> float:
        if t != t:
            return math.nan
        d, om0, om1, a = probe_terms(tables, t)
        bcv = om0 * om1 * (d * d)
        v = bcv / var_tot if var_tot > 0 else 0.0
        h0 = float(np.log(om0)) + a / om0 if om0 > 0 else 0.0
        h1 = float(np.log(om1)) + (a_tot - a) / om1 if om1 > 0 else 0.0
        e = (h0 + h1) / (2.0 * _LN256)
        e = 0.0 if e <= 0.0 else min(e, 1.0)  # np.clip: -0.0 -> 0.0, NaN kept
        return w_var * v + w_ent * e

    return probe


def reference_nelder_mead(f, x0, params=SimplexParams()):
    """The scalar 2-vertex simplex: f is called only on the points it takes."""
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


def reference_refine(j, t_star):
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


def reference_optimize_leaf(
    hist, complexity, weights=ObjectiveWeights(), params=SimplexParams(), tables=None
):
    """The per-leaf optimizer: simplex from the mean, then refinement on the
    256-knot table. `tables` may pass the histogram's ReferenceTables in."""
    tab = ReferenceTables(hist) if tables is None else tables
    wv, we = weights.effective(complexity)
    x_star, _, iters, converged = reference_nelder_mead(
        reference_probe(tab, wv, we), tab.mean, params
    )
    j = tab.knot_table(wv, we)
    t = reference_refine(j, x_star)
    return LeafThreshold(
        threshold=t,
        continuous_optimum=float(x_star),
        objective_value=float(j[t]),
        w_var=wv,
        w_ent=we,
        iterations=iters,
        converged=converged,
    )
