"""The everywhere-oscillating slab function, a control for the census and
the chain contraction: a function that oscillates in every basic cube,
with exponential growth, and is no tube table.

It defines each method its callers use: ``eval_log`` (the census's P1 and
``chain_contraction``'s suprema), ``box_rows`` and
``tube_a``/``tube_b``/``eps`` (it has no tubes, and no box vanishes), and
``covers``, which certifies no cell, so that P2 samples its zero set.
"""

import math

import numpy as np

from oscillab.subfun import NEG_INF, PI, BoxRows, log_cosh


class SlabOscillating:
    """Maximum of integer translates of W along each axis: oscillates in
    every basic cube, with exponential growth."""

    def __init__(self, d: int):
        self.d = d
        self.tube_a = self.tube_b = np.zeros((0, d))
        self.eps = np.zeros(0)

    def eval_log(self, X):
        X = np.atleast_2d(X)
        d = self.d
        out = np.full(X.shape[0], NEG_INF)
        for axis in range(d):
            frac = X[:, axis] - np.round(X[:, axis])
            on = np.abs(frac) <= 0.25
            if not on.any():
                continue
            with np.errstate(divide="ignore"):
                vals = np.log(np.maximum(np.cos(2 * PI * frac[on]), 0.0))
            for j in range(d):
                if j != axis:
                    vals = vals + log_cosh(2 * PI * X[on, j] / math.sqrt(d - 1))
            out[on] = np.maximum(out[on], vals)
        return out

    def box_rows(self, lo, hi):
        lo = np.atleast_2d(np.asarray(lo, dtype=float))
        hi = np.atleast_2d(np.asarray(hi, dtype=float))
        ptr, none = np.zeros(lo.shape[0] + 1, dtype=np.intp), np.zeros(0, dtype=np.intp)
        return BoxRows(lo, hi, ptr, none, ptr, none, np.zeros(lo.shape[0], dtype=bool))

    def covers(self, boxes):
        return np.zeros((len(boxes),) + (1,) * self.d, dtype=bool)
