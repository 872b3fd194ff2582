"""Test-only reference: the threshold objective as a numpy 0-d evaluation.

This is the former `threshopt._Tables.evaluate`, which computed J at a
scalar threshold with numpy operations on 0-d arrays. The library now
evaluates scalar thresholds in plain Python floats (`_Tables.probe`) and the
integer knots straight from the cumulative tables (`_Tables.knots`); the
tests compare both against this code bit for bit.
"""

import math

import numpy as np

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
            bcv = om0 * om1 * (mu0 - mu1) ** 2
            v = bcv / self.var_tot if self.var_tot > 0 else np.zeros_like(bcv)
            h0 = np.where(om0 > 0, np.log(np.where(om0 > 0, om0, 1.0)) + a / np.where(om0 > 0, om0, 1.0), 0.0)
            rest = self.a_tot - a
            h1 = np.where(om1 > 0, np.log(np.where(om1 > 0, om1, 1.0)) + rest / np.where(om1 > 0, om1, 1.0), 0.0)
        e = np.clip((h0 + h1) / (2.0 * _LN256), 0.0, 1.0)
        j = w_var * v + w_ent * e
        return float(j) if np.isscalar(t) or np.ndim(t) == 0 else j
