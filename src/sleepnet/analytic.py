"""Distribution algebra and energy formulas for the sleep-scheduling model.

The central object is the distance X between two adjacent cluster heads,
X = x0 + x1: the span x0 of a cluster (a geometric number of gaps, each an
exponential conditioned to be at most r0) plus the inter-cluster gap x1
(r0 plus a fresh exponential).  Everything downstream is an integral
against the density of X: ``energy_figures`` takes P{X>D}, E[X - D; X>D]
and E[1/X; X>D] from one distribution, and ``_power_saved`` turns the
first and last into E[P_save], the expectation of the per-cycle
bookkeeping in ``simulate._cycle_energy``; the no-relay baseline uses the
same expression with X exponential.

Two fidelities are supported.  "paper" composes the conditional (>= 2
vehicle) cluster-span density alone; "corrected" mixes in the
single-vehicle atom with weight exp(-rho*r0) so the law matches the
generative model exactly.

The corrected gap density f solves the linear delay equation
f'(x) = -lam f(x - r0), lam = rho exp(-rho*r0), with f = 0 below r0 and
f = lam on [r0, 2r0) (the delayed exponential); the paper density is
(f - lam exp(-rho (x - r0))) / (1 - exp(-rho*r0)).  It has three branches:

* a closed form on [r0, 2r0);
* the method of steps up to ``_gap_tail_switch``: on each r0-segment f is
  lam times a polynomial in the segment's local coordinate, whose
  coefficients follow from the previous segment's by one integration;
  one cached table holds them all, evaluated in one Horner pass;
* the exact two-pole tail expansion past the switch.

The test suite checks all three against independent oracles (the
composition quadrature of the span series and an 80-digit decimal
evaluation of the delayed exponential), not at run time.  Truncation
points come from the exact exponential tail rate of X, the nontrivial
root of theta = rho * exp(-(rho - theta) r0).

Evaluation is batched: the density takes an array of points and picks
each point's branch by mask.  ``ChGapDistribution`` integrates it by
panel-doubling Simpson with all panels of one integral in one batch, so
each doubling level costs one density call for all of them; E[X] needs
no integral (``expected_ch_gap``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as P

from .numerics import (QuadratureError, exp_integral_e1,
                       integrate_panel_doubling)
from .params import Fidelity, ModelParams, check_density

#: Tolerances of the panel-doubling integrals against the gap density.
_ABS_TOL = 1e-10
_REL_TOL = 1e-8
#: The gap distribution is truncated where the newest panel carries less
#: than this share of the running mass.
_TAIL_MASS_TOL = 1e-9

#: e-foldings of headroom kept when windowing exponentially weighted
#: integrands; contributions beyond are < exp(-52) relative.
_EFOLDS = 52.0


def intercluster_gap_pdf(x1, params: ModelParams):
    """Density of the gap x1 between a cluster head and the next cluster's
    rear vehicle: r0 plus an exponential(rho)."""
    x1 = np.asarray(x1, dtype=float)
    rho, r0 = params.rho, params.r0
    with np.errstate(under="ignore"):
        out = np.where(
            x1 > r0,
            rho * np.exp(-rho * np.minimum(x1 - r0, 745.0 / rho)), 0.0)
    out = np.where(x1 - r0 > 745.0 / rho, 0.0, out)
    return float(out) if out.ndim == 0 else out


def _span_rate_factor(alpha: float) -> float:
    """The ratio lambda0/rho, where lambda0 is the exponential decay rate of
    the cluster-span density.

    eps = lambda0/rho is the nontrivial root of eps = exp(-alpha(1 - eps)):
    below 1 for dense traffic (alpha > 1), above 1 for sparse, 1 at
    alpha = 1.  Solved directly in eps so no precision is lost when the
    root is within an ulp of the trivial one.
    """
    if abs(alpha - 1.0) <= 1e-6:
        # the two roots merge at alpha = 1; second-order expansion
        return 1.0 - 2.0 * (alpha - 1.0) / (alpha * alpha)
    if alpha > 1.0:
        h = lambda e: math.exp(-alpha * (1.0 - e)) - e
        if alpha >= 2.0:
            # contraction mapping, ratio alpha*eps* < 1/2 here
            eps = math.exp(-alpha)
            for _ in range(200):
                nxt = math.exp(-alpha * (1.0 - eps))
                if abs(nxt - eps) <= 1e-16 * eps:
                    return nxt
                eps = nxt
            return eps
        lo = math.exp(-alpha)              # h(lo) > 0
        hi = 1.0 - (alpha - 1.0) / (alpha * alpha)
        while h(hi) >= 0.0:                # ensure hi is past the root
            hi = 0.5 * (hi + lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if h(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    # alpha < 1: eps = 1 + s with s > 0 solving expm1(alpha s) = s
    def g(s: float) -> float:
        z = alpha * s
        return math.inf if z > 700.0 else math.expm1(z) - s
    s_lo, s_hi = 1e-12, 1.0                # g(s_lo) < 0 since alpha < 1
    while g(s_hi) <= 0.0:
        s_hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (s_lo + s_hi)
        if g(mid) < 0.0:
            s_lo = mid
        else:
            s_hi = mid
    return 1.0 + 0.5 * (s_lo + s_hi)


@functools.lru_cache(maxsize=4096)
def cluster_span_decay_rate(rho: float, r0: float) -> float:
    """Exponential decay rate of the cluster-span density (may exceed rho)."""
    return rho * _span_rate_factor(rho * r0)


def gap_tail_rate(rho: float, r0: float) -> float:
    """Exponential tail rate theta of the cluster-head gap X.

    Solves theta = rho * exp(-(rho - theta) r0); for sparse traffic
    (rho*r0 < 1) the inter-cluster gap dominates and the rate is rho.
    """
    return min(cluster_span_decay_rate(rho, r0), rho)


@functools.lru_cache(maxsize=4096)
def _gap_tail_switch(params: ModelParams) -> float:
    """Abscissa beyond which the exact two-pole tail expansion is used.

    The transform of the gap density has two real poles, at -lambda0 (from
    the geometric cluster-size denominator) and at -rho (from the
    inter-cluster exponential).  Every other pole decays faster than
    exp(-mu2 x) with mu2 = (alpha + ln(2 pi / alpha))/r0, so 32 e-foldings
    past the switch point the two-pole sum is accurate to ~1e-14.  Below
    the switch the density is taken from its delay equation by the method
    of steps, one polynomial per r0-segment.  mu2 exceeds both real poles
    (by ln(2 pi/alpha)/r0 > 0 for alpha < 1, by more than
    (1 - theta r0)/r0 > 0 above), so the switch is finite, at most about
    18.4 r0 (near alpha = 1).
    """
    rho, r0 = params.rho, params.r0
    alpha = rho * r0
    lam0 = cluster_span_decay_rate(rho, r0)
    mu2 = (alpha + math.log(2.0 * math.pi / alpha)) / r0
    return r0 + 32.0 / (mu2 - min(lam0, rho))


def _safe_exp(z):
    z = np.asarray(z, dtype=float)
    return np.where(z > -745.0, np.exp(np.maximum(z, -745.0)), 0.0)


def _gap_pdf_tail(x, params: ModelParams):
    """Exact two-real-pole tail of the corrected-law gap density.

    f(x) = A1 exp(-lambda0 x) + A2 exp(-rho x) with residues
    A1 = lambda0/(1 - lambda0 r0) and A2 = rho/(1 - rho r0); the two terms
    have opposite signs and are combined through expm1 so the near-
    degenerate band lambda0 ~ rho stays fully accurate.  At rho r0 = 1 the
    poles merge and the double-pole limit (2x/r0^2 - 4/(3 r0)) e^{-rho x}
    applies.
    """
    rho, r0 = params.rho, params.r0
    alpha = rho * r0
    if abs(alpha - 1.0) <= 1e-6:
        return np.maximum(_safe_exp(-rho * x) * (2.0 * x / r0 ** 2
                                                 - 4.0 / (3.0 * r0)), 0.0)
    lam0 = cluster_span_decay_rate(rho, r0)
    a1 = lam0 / (1.0 - lam0 * r0)
    a2 = rho / (1.0 - alpha)
    if a1 > 0.0:
        pos, rate_pos, neg, rate_neg = a1, lam0, a2, rho
    else:
        pos, rate_pos, neg, rate_neg = a2, rho, a1, lam0
    ln_ratio = math.log(-neg / pos) - (rate_neg - rate_pos) * x
    value = np.where(
        ln_ratio > 600.0,
        pos * _safe_exp(-rate_pos * x) + neg * _safe_exp(-rate_neg * x),
        -pos * _safe_exp(-rate_pos * x) * np.expm1(np.minimum(ln_ratio,
                                                              600.0)))
    return np.maximum(value, 0.0)


def _gap_pdf_tail_paper(x, params: ModelParams):
    """Two-pole tail restated for the paper fidelity: remove the
    single-vehicle component exp(-rho r0) f_x1(x) = rho exp(-rho x)."""
    p_single = math.exp(-params.rho * params.r0)
    corr = _gap_pdf_tail(x, params)
    return np.maximum((corr - params.rho * _safe_exp(-params.rho * x))
                      / (1.0 - p_single), 0.0)


@functools.lru_cache(maxsize=4096)
def _gap_segment_polys(params: ModelParams) -> np.ndarray:
    """Method-of-steps polynomials of the corrected gap density.

    On the r0-segment k, x = r0 (k + 1 + t) with t in [0, 1), the density
    is lam p_k(t), lam = rho e^{-rho r0}.  The delay equation
    f'(x) = -lam f(x - r0), started from f = lam on [r0, 2r0), gives
    p_0 = 1 and p_{k+1}(t) = p_k(1) - rho r0 e^{-rho r0} integral_0^t p_k.
    Returns one read-only table whose row k holds the monomial
    coefficients of p_k (degree k, zero-padded), one row for every segment
    below ``_gap_tail_switch``.  The sum of the coefficients' magnitudes
    stays within a factor 7 of p_k(1) (the worst case is near
    rho r0 = 1, where the switch is farthest out, at about 18 r0), so
    evaluation at t in [0, 1) loses at most one digit to cancellation.
    """
    c = params.rho_r0 * math.exp(-params.rho_r0)
    n = max(int(_gap_tail_switch(params) / params.r0), 1)
    table = np.zeros((n, n))
    table[0, 0] = 1.0
    for k in range(1, n):
        p = table[k - 1, :k]
        table[k, :k + 1] = -c * P.polyint(p)
        table[k, 0] = P.polyval(1.0, p)
    table.flags.writeable = False
    return table


def _gap_pdf_paper(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Paper-fidelity density at points above r0, each branch applied to
    the points it covers in one call.

    On [r0, 2r0) the closed form rho (1 - e^{-rho(x-r0)})/(e^{rho r0} - 1);
    below ``_gap_tail_switch`` (f - lam e^{-rho(x-r0)})/(1 - e^{-rho r0})
    with the corrected density f = lam p_k(t) of ``_gap_segment_polys``,
    all such points in one Horner pass in ``P.polyval``'s order; past the
    switch the two-pole tail.
    """
    rho, r0 = params.rho, params.r0
    alpha = rho * r0
    out = np.empty(len(x))
    first = x < 2.0 * r0
    tail = ~first & (x >= _gap_tail_switch(params))
    out[first] = rho * (-np.expm1(-rho * (x[first] - r0))) \
        * math.exp(-alpha) / (-math.expm1(-alpha))
    out[tail] = _gap_pdf_tail_paper(x[tail], params)
    steps = ~first & ~tail
    if not np.any(steps):
        return out
    xs = x[steps]
    y = xs / r0
    seg = np.floor(y).astype(np.intp) - 1
    t = y - (seg + 1)
    top = int(seg.max())                  # columns past it are all zero
    coef = _gap_segment_polys(params)[seg, :top + 1]
    f = np.zeros(len(xs))
    for j in range(top, -1, -1):
        f = coef[:, j] + f * t
    out[steps] = rho * math.exp(-alpha) * (f - np.exp(-rho * (xs - r0))) \
        / (-math.expm1(-alpha))
    return out


def ch_gap_pdf(x, params: ModelParams):
    """Density of the distance X between adjacent cluster heads, in 1/m,
    at a point or an array of points (a 0-d input returns a float).

    Zero at and below r0.  Above it the paper-fidelity density: the closed
    form on [r0, 2r0), the method-of-steps solution of the delay equation
    f'(x) = -rho e^{-rho r0} f(x - r0) up to ``_gap_tail_switch``, and the
    two-pole tail past it, all points of an array in one pass.  The
    corrected fidelity mixes in the single-vehicle-cluster component with
    weight exp(-rho r0).
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.zeros(len(flat))
    above = flat > params.r0
    if np.any(above):
        xa = flat[above]
        paper = _gap_pdf_paper(xa, params)
        if params.fidelity is Fidelity.PAPER:
            out[above] = paper
        else:
            p_single = math.exp(-params.rho * params.r0)
            out[above] = p_single * intercluster_gap_pdf(xa, params) \
                + (1.0 - p_single) * paper
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


class ChGapDistribution:
    """Evaluable pdf/cdf of the cluster-head gap X, truncated by tail mass.

    Construction lays out integration panels (piece boundaries at multiples
    of r0, then geometrically growing spans) and extends them until the
    newest panel carries less than ``_TAIL_MASS_TOL`` of the running total.
    Panel masses, the cdf and every expectation integrate ``ch_gap_pdf``
    by panel-doubling Simpson to ``_ABS_TOL``/``_REL_TOL``, all panels of
    one integral in one batched quadrature.  The instance keeps no cache:
    it is read-only after construction.
    """

    def __init__(self, params: ModelParams):
        check_density(params)
        self.params = params
        self.tail_rate = gap_tail_rate(params.rho, params.r0)
        self._build_panels()
        self.x_max = float(self._edges[-1])

    # -- evaluation ------------------------------------------------------

    def pdf(self, x):
        """``ch_gap_pdf`` at a point (a float) or an array of points."""
        return ch_gap_pdf(x, self.params)

    def _quad(self, f, lo, hi):
        return integrate_panel_doubling(f, lo, hi, abs_tol=_ABS_TOL,
                                        rel_tol=_REL_TOL)

    def cdf(self, x: float) -> float:
        x = float(x)
        if x <= self.params.r0:
            return 0.0
        if x >= self.x_max:
            return float(self._cum[-1])
        i = int(np.searchsorted(self._edges, x, side="right")) - 1
        partial = 0.0
        if x > self._edges[i]:
            partial = self._quad(self.pdf, float(self._edges[i]), x)
        return float(self._cum[i] + partial)

    @property
    def total_mass(self) -> float:
        """Integral of the pdf up to x_max; 1 to within quadrature accuracy."""
        return float(self._cum[-1])

    def integral(self, weight: Optional[Callable] = None,
                 lo: Optional[float] = None) -> float:
        """Integral of weight(x) * pdf(x) from max(lo, r0) to x_max.

        ``weight`` takes an ndarray; None means unit weight.  The panels
        are integrated in one batch and summed by ``math.fsum``.
        """
        lo = self.params.r0 if lo is None else max(lo, self.params.r0)
        if lo >= self.x_max:
            return 0.0
        edges = np.concatenate([[lo], self._edges[self._edges > lo]])
        f = self.pdf if weight is None \
            else lambda xs: weight(xs) * self.pdf(xs)
        return math.fsum(self._quad(f, edges[:-1], edges[1:]).tolist())

    # -- construction ----------------------------------------------------

    def _build_panels(self):
        rho, r0 = self.params.rho, self.params.r0
        alpha = rho * r0
        ell = -math.log1p(-math.exp(-alpha)) if alpha < 700 \
            else math.exp(-alpha)
        support = 1.0 + _EFOLDS / max(ell, 1e-300)     # in units of r0
        n_kinks = int(min(max(4.0, math.ceil(support) + 1,),
                          max(4.0, math.ceil(_EFOLDS / max(alpha, 1e-9))),
                          120.0))
        edges = [r0 * j for j in range(1, n_kinks + 1)]
        # bridge geometrically out to the tail-rate scale before applying
        # the mass-driven stopping rule
        while edges[-1] - r0 < 10.0 / self.tail_rate:
            edges.append(r0 + 2.0 * (edges[-1] - r0))
        overflow = ArithmeticError(
            f"rho*r0 = {alpha!r} (rho={rho!r}, r0={r0!r}): the gap law's "
            f"tail decays at {self.tail_rate!r} per m, too slowly for its "
            f"panel edges to stay below the largest double")
        if not math.isfinite(2.0 * edges[-1]):   # the first tail edge
            raise overflow

        masses = self._quad(self.pdf, edges[:-1], edges[1:]).tolist()
        for _ in range(40):
            new = r0 + 2.0 * (edges[-1] - r0)
            if not math.isfinite(new):
                raise overflow
            mss = self._quad(self.pdf, edges[-1], new)
            edges.append(new)
            masses.append(mss)
            if mss < _TAIL_MASS_TOL * max(math.fsum(masses), 1e-300):
                break
        else:
            raise QuadratureError("gap-distribution tail mass not converging",
                                  math.fsum(masses))
        self._edges = np.asarray(edges)
        self._cum = np.concatenate([[0.0], np.cumsum(masses)])


# -- expectations --------------------------------------------------------


@dataclass(frozen=True)
class EnergyFigures:
    """Analytic outputs at one parameter point (SI units)."""

    expected_gap: float                      # E[X], m
    prob_sleep: float                        # P{X > D}
    expected_sleep_time: Optional[float]     # E[T_off | sleep occurs], s
    expected_power_saved: float              # E[P_save], W
    mean_speed: float                        # E[V], m/s


def expected_ch_gap(params: ModelParams,
                    dist: Optional[ChGapDistribution] = None) -> float:
    """E[X] in closed form, alpha = rho r0: e^alpha/rho (corrected), by
    Wald's identity over the geometric number of intra-cluster gaps; the
    paper law drops the single-vehicle part (weight e^-alpha, mean
    r0 + 1/rho): (2 sinh alpha - alpha e^-alpha)/(rho (1 - e^-alpha)).
    ``dist`` is unused; it stays for callers that pass one (``bench/run.py``).
    Raises a named ``ArithmeticError`` past ``check_density``'s limit or
    where E[X] would exceed the largest double.
    """
    check_density(params)
    rho, alpha = params.rho, params.rho_r0
    mean = (math.exp(alpha) / rho if params.fidelity is Fidelity.CORRECTED
            else (2.0 * math.sinh(alpha) - alpha * math.exp(-alpha))
            / (rho * -math.expm1(-alpha)))
    if not math.isfinite(mean):
        raise ArithmeticError(
            f"rho*r0 = {alpha!r} (rho={rho!r}, r0={params.r0!r}): E[X] "
            f"exceeds the largest double")
    return mean


def _power_saved(params: ModelParams, prob: float, inv: float) -> float:
    """E[P_save] = P0 P{X>D} - (P0 D + Ec E[V]) E[1/X; X>D].

    A cycle with gap x > D at speed v sleeps (x - D)/v and pays Ec once,
    so its mean power is P0 (x - D)/x - Ec v/x; the speed enters only
    through E[V] because it is independent of the gap.  ``prob`` is
    P{X>D} and ``inv`` is E[1/X; X>D].
    """
    return params.P0 * prob - params.P0 * params.D * inv \
        - params.Ec * params.mean_speed * inv


def baseline_power_saved(params: ModelParams) -> float:
    """Expected power saved without vehicle-to-vehicle relaying.

    The r0 -> 0 limit: every vehicle is its own cluster head and X is
    exponential(rho), so P{X>D} = e^{-rho D} and E[1/X; X>D] reduces to
    rho E1(rho D) with the exponential integral E1.
    """
    z = params.rho * params.D
    tail = math.exp(-z) if z < 745.0 else 0.0
    return _power_saved(params, tail, params.rho * exp_integral_e1(z))


def energy_figures(params: ModelParams,
                   dist: Optional[ChGapDistribution] = None) -> EnergyFigures:
    """All analytic outputs at one parameter point, sharing one distribution
    (and thus one truncation point, keeping P{X>D} + F(D) consistent).

    P{X>D} is taken as 1 - F(D), which keeps the shortfall's relative
    precision where F(D) is tiny, clamped to [0, 1] because the truncated
    mass can exceed 1 by its quadrature error; past the truncation point
    it is zero.  E[T_off] = E[1/V] E[X - D; X > D] / P{X>D} is None when
    P{X>D} < 1e-12.
    """
    dist = dist or ChGapDistribution(params)
    D = params.D
    prob = min(max(1.0 - dist.cdf(D), 0.0), 1.0) if D < dist.x_max else 0.0
    m_excess = dist.integral(lambda xs: xs - D, lo=D)
    inv = dist.integral(lambda xs: 1.0 / xs, lo=D)
    sleep_time = (params.mean_inv_speed * m_excess / prob
                  if prob >= 1e-12 else None)
    return EnergyFigures(expected_gap=expected_ch_gap(params), prob_sleep=prob,
                         expected_sleep_time=sleep_time,
                         expected_power_saved=_power_saved(params, prob, inv),
                         mean_speed=params.mean_speed)
