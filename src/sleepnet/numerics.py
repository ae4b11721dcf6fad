"""Numerical substrate: adaptive and panel-doubling Simpson quadrature,
compensated accumulation and the exponential integral.

Everything here is a pure function of its arguments and deterministic,
so it is safe to call from any number of workers concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EULER_GAMMA = 0.5772156649015328606


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits shared by all quadrature routines."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 60
    tail_mass_tol: float = 1e-9

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "tail_mass_tol"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be strictly positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_SPEC = QuadratureSpec()


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


def _sum_by_owner(values: np.ndarray, owner: np.ndarray,
                  n: int) -> np.ndarray:
    """Sum of ``values`` per owner 0..n-1, each in array order and by the
    pairwise scheme np.sum applies to that owner's values alone, so an
    owner's sum does not depend on which other owners share the array."""
    # below 8 terms np.sum adds in order from 0.0, as bincount does
    out = np.bincount(owner, values, minlength=n)
    counts = np.bincount(owner, minlength=n)
    if counts.max() < 8:
        return out
    grouped = values[np.argsort(owner, kind="stable")]
    starts = np.cumsum(counts) - counts
    for c in np.unique(counts[counts >= 8]):
        rows = np.flatnonzero(counts == c)
        # a row sum of a C-ordered block adds exactly as np.sum of the row
        out[rows] = grouped[starts[rows, None] + np.arange(c)].sum(axis=1)
    return out


def _adaptive_simpson_stack(fv, edges: np.ndarray, spec: QuadratureSpec,
                            noise_scale=0.0, owner=None):
    """Adaptive Simpson with Richardson extrapolation over a list of panels.

    All pending subintervals are processed as flat arrays so the integrand
    is evaluated in large batches.  Panels share the absolute tolerance in
    proportion to their width.

    Initial panel endpoints are sampled a 2^-40 relative inset inside the
    panel, so integrands with jumps exactly at the supplied edges (one-sided
    limits differing) still converge; the bias is far below the tolerances.

    ``noise_scale`` is the absolute rounding-noise amplitude of a single
    integrand evaluation (e.g. machine epsilon times the term magnitude of
    a cancelling series).  Refinement stops once the Richardson defect is
    at that noise level; without it, noisy integrands subdivide forever.

    Several integrals can share one pass.  ``owner`` then labels each edge
    with the integral (0..n-1, non-decreasing) it belongs to; a panel joins
    two consecutive edges of one owner.  The integrand is called as
    ``fv(x, owner_of_x)``, ``noise_scale`` may be one value per owner, and
    an array of n integrals is returned.  Tolerance span, running integrand
    scale, noise floor, failure and compensated total are all kept per
    owner, so each integral is the one a call of its own would give.
    Without ``owner`` the edges describe one integral, ``fv(x)`` is called
    and a float is returned.
    """
    edges = np.asarray(edges, dtype=float)
    if owner is None:
        owner = np.zeros(len(edges), dtype=np.intp)
        f = lambda x, _: fv(x)
        out = lambda v: float(v[0])
    else:
        owner = np.asarray(owner, dtype=np.intp)
        f, out = fv, lambda v: v
    pair = owner[1:] == owner[:-1]
    if np.any(np.diff(owner) < 0) or np.any(np.diff(edges)[pair] <= 0):
        raise ValueError("panel edges must be strictly increasing")
    n = int(owner[-1]) + 1
    lo = np.full(n, np.inf)
    hi = np.full(n, -np.inf)
    np.minimum.at(lo, owner, edges)
    np.maximum.at(hi, owner, edges)
    span = hi - lo
    noise_scale = np.broadcast_to(np.asarray(noise_scale, dtype=float), (n,))
    own = owner[:-1][pair]
    a = edges[:-1][pair]
    b = edges[1:][pair]
    widths = b - a

    inset = 2.0 ** -40
    fa = f(a + inset * widths, own)
    fb = f(b - inset * widths, own)
    m = 0.5 * (a + b)
    fm = f(m, own)
    f_scale = np.full(n, 1e-300)
    np.maximum.at(f_scale, own,
                  np.maximum(np.maximum(np.abs(fa), np.abs(fb)), np.abs(fm)))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    eps = np.maximum(spec.abs_tol * (b - a) / span[own],
                     spec.rel_tol * np.abs(whole))
    eps = np.maximum(eps, 1e-300)
    depth = np.zeros(len(a), dtype=np.int64)

    total, comp = np.zeros(n), np.zeros(n)
    failed = np.zeros(n, dtype=bool)
    estimate = lambda: out(total + comp
                           + np.bincount(own, whole, minlength=n))
    while len(a):
        if np.bincount(own, minlength=n).max() > 2_000_000:
            raise QuadratureError("pending-interval stack exploded",
                                  estimate())
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        fhalf = f(np.concatenate([lm, rm]), np.concatenate([own, own]))
        if not np.all(np.isfinite(fhalf)):
            raise QuadratureError("integrand returned a non-finite value",
                                  estimate())
        flm, frm = fhalf[: len(a)], fhalf[len(a):]
        np.maximum.at(f_scale, own, np.maximum(np.abs(flm), np.abs(frm)))
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        # floor at integrand rounding noise so noisy-but-converged panels
        # cannot split forever
        noise = (b - a) * np.maximum(
            100.0 * np.finfo(float).eps * f_scale[own],
            4.0 * noise_scale[own])
        converged = np.abs(delta) <= np.maximum(15.0 * eps, noise)
        exhausted = depth >= spec.max_subdivisions
        accept = converged | exhausted
        failed[own[exhausted & ~converged]] = True

        if np.any(accept):
            # one Neumaier step per owner; adding 0.0 leaves an owner with
            # no accepted panel unchanged
            chunk = _sum_by_owner((left + right + delta / 15.0)[accept],
                                  own[accept], n)
            t = total + chunk
            comp += np.where(np.abs(total) >= np.abs(chunk),
                             (total - t) + chunk, (chunk - t) + total)
            total = t

        keep = ~accept
        own = np.concatenate([own[keep], own[keep]])
        a, b, m = (np.concatenate([a[keep], m[keep]]),
                   np.concatenate([m[keep], b[keep]]),
                   np.concatenate([lm[keep], rm[keep]]))
        fa, fb, fm = (np.concatenate([fa[keep], fm[keep]]),
                      np.concatenate([fm[keep], fb[keep]]),
                      np.concatenate([flm[keep], frm[keep]]))
        whole = np.concatenate([left[keep], right[keep]])
        eps = np.concatenate([eps[keep] / 2.0, eps[keep] / 2.0])
        depth = np.concatenate([depth[keep] + 1, depth[keep] + 1])

    result = out(total + comp)
    if np.any(failed):
        raise QuadratureError(
            f"no convergence after {spec.max_subdivisions} subdivisions", result)
    return result


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
