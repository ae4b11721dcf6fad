"""Numerical substrate: panel-doubling Simpson quadrature over one panel
or a batch of panels, and the exponential integral.

Everything here is a pure function of its arguments and deterministic,
so it is safe to call from any number of workers concurrently.
"""

from __future__ import annotations

import math

import numpy as np

_EULER_GAMMA = 0.5772156649015328606

#: Smallest normal double.
_TINY = float(np.finfo(float).tiny)


class QuadratureError(ArithmeticError):
    """Quadrature did not converge; carries the best available estimate."""

    def __init__(self, message: str, estimate: float = math.nan):
        self.estimate = float(estimate)
        super().__init__(f"{message} (best estimate {self.estimate!r})")


def _panel_nodes(lo: np.ndarray, hi: np.ndarray, n: int) -> tuple:
    """(nodes, exact): the n + 1 nodes np.linspace(lo, hi, n + 1, axis=1)
    gives each panel, by its own expression i * step + lo with the last
    node hi, as a C-ordered (panels, n + 1) array.  exact is False where
    a step is not a normal double, and the nodes are then np.linspace's
    own; where it is True, the nodes of 2n at even i are those of n bit
    for bit (halving a normal step is exact)."""
    step = (hi - lo) / n
    if not np.all(step >= _TINY):
        return np.ascontiguousarray(np.linspace(lo, hi, n + 1, axis=1)), False
    xs = np.arange(n + 1.0) * step[:, None] + lo[:, None]
    xs[:, -1] = hi
    return xs, True


def integrate_panel_doubling(fv, lo, hi, *, abs_tol: float, rel_tol: float,
                             max_points: int = 16384):
    """Integrate a smooth integrand over each panel [lo, hi] by composite
    Simpson with grid doubling and Richardson extrapolation.

    ``lo`` and ``hi`` are floats (one panel, a float is returned) or
    equal-length arrays (one value per panel).  Each call ``fv(xs, panel)``
    takes the nodes of every unconverged panel at the current level as one
    flat array, and for each node the index of its panel in ``lo``/``hi``,
    so a batch costs one integrand call per doubling level, and panels of
    different integrands can share it; after the first level it takes only
    the new midpoints, the other nodes' values being the last level's, bit
    for bit (``_panel_nodes``); every panel keeps its own convergence,
    noise-floor and ``max_points`` tests and gets the same bits as a call
    of its own.  Unlike depth-adaptive splitting this scheme detects the
    rounding-noise plateau of the integrand: when doubling stops improving
    the defect the current extrapolation is returned instead of refining
    forever, so integrands accurate only to some absolute noise level
    still return.
    """
    scalar = np.ndim(lo) == 0
    lo, hi = np.atleast_1d(np.asarray(lo, dtype=float),
                           np.asarray(hi, dtype=float))
    if not np.all(hi > lo):
        raise ValueError("require hi > lo")
    width = hi - lo
    value = np.empty(len(lo))
    # nan until a level is done: comparisons with it are false
    prev, prev_err = np.full(len(lo), math.nan), np.full(len(lo), math.nan)
    todo = np.arange(len(lo))          # panels not yet converged
    n, ys, exact = 8, None, False
    while n <= max_points:
        w = width[todo]
        was_exact = exact
        xs, exact = _panel_nodes(lo[todo], hi[todo], n)
        xs[:, 0] += w * 2.0 ** -40     # jump-at-edge tolerance
        xs[:, -1] -= w * 2.0 ** -40
        if was_exact and exact:        # the even nodes are the last level's
            kept, ys = ys, np.empty_like(xs)
            ys[:, ::2] = kept
            ys[:, 1::2] = fv(xs[:, 1::2].reshape(-1),
                             np.repeat(todo, n // 2)).reshape(len(todo), -1)
        else:
            ys = fv(xs.reshape(-1), np.repeat(todo, n + 1)).reshape(xs.shape)
        if not np.all(np.isfinite(ys)):
            raise QuadratureError("integrand returned a non-finite value")
        s = w / n / 3.0 * (ys[:, 0] + ys[:, -1]
                           + 4.0 * ys[:, 1:-1:2].sum(axis=1)
                           + 2.0 * ys[:, 2:-1:2].sum(axis=1))
        err = np.abs(s - prev[todo]) / 15.0
        value[todo] = s + (s - prev[todo]) / 15.0
        done = err <= np.maximum(abs_tol, rel_tol * np.abs(s))
        if n >= 64:                    # defect stopped shrinking: noise floor
            done |= err >= 0.25 * prev_err[todo]
        prev[todo], prev_err[todo] = s, err
        todo, ys = todo[~done], ys[~done]
        if not len(todo):
            return float(value[0]) if scalar else value
        n *= 2
    raise QuadratureError("panel refinement exhausted", prev[todo[0]])


def exp_integral_e1(z: float) -> float:
    """E1(z) = integral of exp(-t)/t from z to infinity, z > 0.

    Power series for z <= 1, modified-Lentz continued fraction above;
    relative error is at the 1e-14 level over the tested range.
    """
    if not (z > 0):
        raise ValueError("exp_integral_e1 requires z > 0")
    if z <= 1.0:
        total = -_EULER_GAMMA - math.log(z)
        term = 1.0
        for k in range(1, 60):
            term *= -z / k
            contrib = -term / k
            total += contrib
            if abs(contrib) < 1e-18 * abs(total):
                break
        return total
    # continued fraction e^{-z}/(z+1- 1/(z+3- 4/(z+5- ...)))
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        an = -i * i
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-z)
