"""Numerical substrate: panel-doubling Simpson quadrature, compensated
accumulation and the exponential integral.

Everything here is a pure function of its arguments and deterministic,
so it is safe to call from any number of workers concurrently.
"""

from __future__ import annotations

import math

import numpy as np

_EULER_GAMMA = 0.5772156649015328606


class QuadratureError(ArithmeticError):
    """Quadrature did not converge; carries the best available estimate."""

    def __init__(self, message: str, estimate: float = math.nan):
        super().__init__(f"{message} (best estimate {estimate!r})")
        self.estimate = estimate


def _neumaier_step(s: float, c: float, x: float) -> tuple[float, float]:
    t = s + x
    if abs(s) >= abs(x):
        c += (s - t) + x
    else:
        c += (x - t) + s
    return t, c


def integrate_panel_doubling(fv, lo: float, hi: float, *,
                             abs_tol: float, rel_tol: float,
                             max_points: int = 16384) -> float:
    """Integrate a smooth integrand over one panel by composite Simpson
    with grid doubling and Richardson extrapolation.

    Unlike depth-adaptive splitting this scheme detects the rounding-noise
    plateau of the integrand: when doubling stops improving the defect the
    current extrapolation is returned instead of refining forever.  Meant
    for integrands whose evaluations are themselves quadratures, accurate
    only to some absolute noise level.
    """
    if not (hi > lo):
        raise ValueError("require hi > lo")
    width = hi - lo
    prev = None
    prev_err = math.inf
    n = 8
    while n <= max_points:
        xs = np.linspace(lo, hi, n + 1)
        xs[0] += width * 2.0 ** -40     # jump-at-edge tolerance
        xs[-1] -= width * 2.0 ** -40
        ys = fv(xs)
        if not np.all(np.isfinite(ys)):
            raise QuadratureError("integrand returned a non-finite value",
                                  math.nan)
        h = width / n
        s = h / 3.0 * (ys[0] + ys[-1] + 4.0 * float(np.sum(ys[1:-1:2]))
                       + 2.0 * float(np.sum(ys[2:-1:2])))
        if prev is not None:
            err = abs(s - prev) / 15.0
            value = s + (s - prev) / 15.0
            if err <= max(abs_tol, rel_tol * abs(s)):
                return value
            if n >= 64 and err >= 0.25 * prev_err:
                return value            # defect stopped shrinking: noise floor
            prev_err = err
        prev = s
        n *= 2
    raise QuadratureError("panel refinement exhausted", prev)


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
