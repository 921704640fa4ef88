"""Adaptive quadrature and empirical-distribution utilities.

The integrator is a vectorized Gauss-Kronrod 7/15 scheme: integrands are
called with a numpy array of abscissae and must evaluate elementwise.  All
panels pending refinement, of every level a call integrates, are evaluated in
a single call per round, which keeps the Python overhead flat even when
thousands of panels are needed around integrand kinks.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameterError, NumericFailureError

__all__ = [
    "integrate_1d",
    "integrate_2d_nested",
    "EmpiricalDistribution",
    "ks_distance_bound",
    "ks_bound_grid",
]

# Kronrod-15 abscissae on [-1, 1]; odd-indexed entries are the embedded Gauss-7 nodes.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])

# 15-point Gauss-Legendre rule for the fixed-order inner dimension of nested integrals.
_XGL, _WGL = np.polynomial.legendre.leggauss(15)


# The K15 weights (row 0) and the G7 weights at the Gauss nodes (row 1), per node.
_WEIGHTS = np.zeros((2, _XK.size, 1))
_WEIGHTS[0, :, 0] = _WK
_WEIGHTS[1, 1::2, 0] = _WG


def _panel_eval(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Kronrod-15 estimate and |K15 - G7| error for a batch of panels.

    ``f`` gets the abscissae node by node: the first node of every panel, then
    the second, and so on.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid + half * _XK[:, None]
    terms = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape) * _WEIGHTS
    # Both sums by one fixed tree over the nodes, not through BLAS: a matrix-vector
    # product may sum a panel in an order set by the panels beside it and by the CPU.
    terms[:, :7] += terms[:, 8:]
    terms[:, :4] += terms[:, 4:8]
    terms[:, :2] += terms[:, 2:4]
    terms[:, 0] += terms[:, 1]
    k15, g7 = terms[:, 0] * half
    return k15, np.abs(k15 - g7)


def _segment_sums(x, starts, count):
    """Each row's ``row[s : s + c].sum()`` per segment ``s, c``: every level sums as alone.

    Row by row, since a 2-D reduction may add a row's values in another order.
    """
    segments = list(zip(starts.tolist(), count.tolist()))
    return np.array([[row[s : s + c].sum() for s, c in segments] for row in x])


# Levels per pass of the adaptive loop, which bounds its panel arrays on large level sets.
_LEVEL_BATCH = 512


def integrate_1d(
    f: Callable,
    a,
    b,
    breakpoints: Sequence | None = None,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-12,
    max_subdivisions: int = 4096,
):
    """Integrate a vectorized function over [a, b] adaptively, for one level or many.

    Scalar bounds integrate ``f(x)`` and give a float.  Arrays of bounds give
    one integral per level: ``f(x, level)`` then also gets the level index of
    each abscissa, and each breakpoint is a scalar or an array over the levels.
    A level splits first at its breakpoints inside (a, b), then bisects the
    panels with the largest error estimates until its summed error meets
    ``max(abs_tol, rel_tol * |integral|)``.  Levels share the integrand calls
    only: each keeps its own panels, tolerance and budget, so it gets the
    same bits in any batch as alone.

    Raises ``NumericFailureError`` (carrying the level's best estimate and
    bound) if a level exhausts its panel budget first, or as soon as a
    level's value or error estimate is not finite, since no refinement can
    cure that.
    """
    one = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, float)), np.asarray(b, float))
    out_of_order = a > b
    if out_of_order.any():
        i = np.argmax(out_of_order)
        raise InvalidParameterError(f"integration bounds out of order: {a[i]} > {b[i]}")
    g = (lambda x, _: f(x)) if one else f
    # One row per breakpoint, one column per level.
    cuts = np.empty((len(breakpoints or ()), a.size))
    for row, c in zip(cuts, breakpoints or ()):
        row[:] = c
    out = np.empty(a.shape)
    for first in range(0, a.size, _LEVEL_BATCH):
        part = slice(first, first + _LEVEL_BATCH)
        out[part] = _adaptive(
            g, first, a[part], b[part], cuts[:, part], rel_tol, abs_tol, max_subdivisions
        )
    return float(out[0]) if one else out


def _adaptive(f, first, a, b, cuts, rel_tol, abs_tol, max_subdivisions):
    """:func:`integrate_1d` of one batch of levels, ``first`` the index of its first level.

    The panel array's rows are lo, hi, value and error; its columns hold every
    unfinished level's panels, grouped by level and, within a level, kept
    panels first, then the left and the right halves of the panels split
    last, each in their previous order.
    """
    out = np.zeros(a.size)

    def evaluate(lo, hi, lev):
        at = np.tile(lev + first, _XK.size)
        return np.array((lo, hi, *_panel_eval(lambda x: f(x, at), lo, hi)))

    # Each level's knots: a, its breakpoints strictly inside (a, b) in order, b;
    # its panels lie between consecutive distinct knots.
    inner = np.sort(np.where((cuts > a) & (cuts < b), cuts, b), axis=0)
    knots = np.vstack((a, inner, b)).T
    between = knots[:, 1:] > knots[:, :-1]
    lev = np.nonzero(between)[0]
    panels = evaluate(knots[:, :-1][between], knots[:, 1:][between], lev)
    width, tiny = b - a, np.finfo(float).tiny
    while lev.size:
        starts = np.flatnonzero(np.concatenate(([True], lev[1:] != lev[:-1])))
        count = np.concatenate((starts[1:], [lev.size])) - starts
        total, err = _segment_sums(panels[2:], starts, count)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        bad = ~(np.isfinite(total) & np.isfinite(err))
        if bad.any():
            i = np.argmax(bad)
            raise NumericFailureError(
                f"quadrature hit a non-finite value with {count[i]} panels",
                estimate=float(total[i]),
                error_bound=float(err[i]),
            )
        done = err <= tol
        out[lev[starts[done]]] = total[done]
        stuck = ~done & (count >= max_subdivisions)
        if stuck.any():
            i = np.argmax(stuck)
            raise NumericFailureError(
                f"quadrature did not converge: error {err[i]:.3g} > tol {tol[i]:.3g} "
                f"with {count[i]} panels",
                estimate=float(total[i]),
                error_bound=float(err[i]),
            )
        if done.all():
            return out
        on = np.repeat(~done, count)
        panels, lev = panels[:, on], lev[on]
        tol, count = tol[~done], count[~done]
        starts = np.cumsum(count) - count
        lo, hi, _, errs = panels
        # Refine every panel still holding more than its length-proportional share;
        # a level with none such refines its worst panels.
        budget = np.repeat(tol, count) * (hi - lo) / width[lev]
        split = errs > np.maximum(budget, tiny)
        worst = np.repeat(np.maximum.reduceat(errs, starts), count)
        split |= np.repeat(~np.logical_or.reduceat(split, starts), count) & (errs >= worst)
        mid = 0.5 * (lo[split] + hi[split])
        new_lev = np.tile(lev[split], 2)
        halves = evaluate(
            np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split])), new_lev
        )
        # A stable sort by level keeps each level's panels in the order above.
        lev = np.concatenate((lev[~split], new_lev))
        order = np.argsort(lev, kind="stable")
        panels, lev = np.concatenate((panels[:, ~split], halves), axis=1)[:, order], lev[order]
    return out


def integrate_2d_nested(
    f: Callable,
    r_interval: tuple[float, float],
    inner_support: Callable[[float], Sequence[tuple[float, float]]],
    breakpoints: Sequence[float] | None = None,
) -> float:
    """Integrate ``f(r, s)`` over ``r`` in ``r_interval`` and ``s`` in ``inner_support(r)``.

    The outer dimension uses the adaptive rule of :func:`integrate_1d`.  The
    inner integral applies a fixed 15-point Gauss-Legendre rule per support
    interval, so the caller must split the support at any abscissa where the
    integrand is not smooth; intervals with nonpositive length are ignored.
    ``f`` must broadcast over numpy arrays in both arguments.
    """
    a, b = r_interval

    def outer(rs: np.ndarray) -> np.ndarray:
        r_rep, s_lo, s_hi, owner = [], [], [], []
        for i, r in enumerate(rs):
            for lo_i, hi_i in inner_support(float(r)):
                if hi_i > lo_i:
                    r_rep.append(r)
                    s_lo.append(lo_i)
                    s_hi.append(hi_i)
                    owner.append(i)
        out = np.zeros(len(rs))
        if not r_rep:
            return out
        r_rep = np.asarray(r_rep)
        half = 0.5 * (np.asarray(s_hi) - np.asarray(s_lo))
        mid = 0.5 * (np.asarray(s_hi) + np.asarray(s_lo))
        nodes = mid[:, None] + half[:, None] * _XGL[None, :]
        vals = np.asarray(f(r_rep[:, None], nodes), dtype=float)
        np.add.at(out, owner, (vals @ _WGL) * half)
        return out

    return integrate_1d(outer, a, b, breakpoints)


class EmpiricalDistribution:
    """Sorted sample set supporting CDF, quantile and KS-distance queries."""

    def __init__(self, samples):
        s = np.sort(np.asarray(samples, dtype=float).ravel())
        if s.size == 0:
            raise InvalidParameterError("empirical distribution needs at least one sample")
        self.samples = s
        self.n = s.size

    def cdf(self, x):
        return np.searchsorted(self.samples, x, side="right") / self.n

    def quantile(self, q):
        return np.quantile(self.samples, q)


# Samples per reference-CDF evaluation on the every-sample grid.
_KS_SLICE = 1 << 16


def ks_bound_grid(emp: EmpiricalDistribution, grid_size: int = 512) -> np.ndarray:
    """Distinct rank-spaced samples where :func:`ks_distance_bound` evaluates the reference."""
    if grid_size < 2:
        raise InvalidParameterError("grid_size must be at least 2")
    idx = np.linspace(0, emp.n - 1, min(grid_size, emp.n)).round().astype(int)
    return np.unique(emp.samples[idx])


def ks_distance_bound(samples, cdf: Callable, grid_size: int | None = None) -> float:
    """Kolmogorov-Smirnov distance between samples and a reference CDF, or a bound on it.

    The reference is evaluated at grid points y_1 < ... < y_M only.  With L_t
    and H_t the empirical CDF below and at y_t, F_t = cdf(y_t) and F_0 = H_0 = 0,
    monotonicity bounds the distance on (y_{t-1}, y_t] by max(L_t - F_{t-1},
    cdf(y_t^-) - H_{t-1}) and past y_M by 1 - F_M.  With ``grid_size=None``
    every sample is a point, tied ones consecutive, and the bound is the exact
    distance.  Else the grid is :func:`ks_bound_grid`, for a reference costing
    an integration per point, and the bound exceeds the exact distance by at
    most the largest empirical mass between grid points, about 1/grid_size.

    The reference must be the CDF of a nonnegative variable with at most one
    atom, at zero, as are squared gains and vertical angles in [0, pi].  Its
    left limit is then 0 at or below zero and the CDF itself above, so the
    atom mass is not reported as spurious distance.
    """
    emp = samples if isinstance(samples, EmpiricalDistribution) else EmpiricalDistribution(samples)
    dist, f_prev, h_prev = 0.0, 0.0, 0.0
    for y, low, high in _ks_grid(emp, grid_size):
        f = np.asarray(cdf(y), dtype=float)
        f_left = np.where(y <= 0.0, 0.0, f)
        # A piece's first point pairs with the last point of the piece before.
        up = np.max(low[1:] - f[:-1], initial=low[0] - f_prev)
        down = np.max(f_left[1:] - high[:-1], initial=f_left[0] - h_prev)
        dist, f_prev, h_prev = max(dist, up, down), f[-1], high[-1]
    return float(max(dist, 1.0 - f_prev))


def _ks_grid(emp: EmpiricalDistribution, grid_size: int | None):
    """Ascending pieces ``(y, L, H)`` of the grid of :func:`ks_distance_bound`."""
    s, n = emp.samples, emp.n
    if grid_size is not None:
        y = ks_bound_grid(emp, grid_size)
        yield y, np.searchsorted(s, y, side="left") / n, np.searchsorted(s, y, side="right") / n
        return
    # Every sample, ranked by its position: a search would cost several times the pass.
    for start in range(0, n, _KS_SLICE):
        ranks = np.arange(start, min(start + _KS_SLICE, n) + 1) / n
        yield s[start : start + _KS_SLICE], ranks[:-1], ranks[1:]
