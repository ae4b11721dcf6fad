"""Distribution algebra and energy formulas for the sleep-scheduling model.

The central object is the distance X between two adjacent cluster heads,
X = x0 + x1: the span x0 of a cluster (a geometric number of gaps, each an
exponential conditioned to be at most r0) plus the inter-cluster gap x1
(r0 plus a fresh exponential).  Everything downstream -- sleep-time and
power-saving expectations -- is an integral against the density of X.

Two fidelities are supported.  "paper" composes the conditional (>= 2
vehicle) cluster-span density alone; "corrected" mixes in the
single-vehicle atom with weight exp(-rho*r0) so the law matches the
generative model exactly.

Numerical care, in three places:

* the cluster-span density is an alternating series whose terms can dwarf
  the result; terms are built in log space and combined with compensated
  summation, with a cancellation diagnostic per point;
* the gap density is evaluated in the shifted form
  rho * integral f_x0(x_hi - w) e^{-rho w} dw, never as
  e^{-rho x} * integral e^{+rho x0} (...), so nothing overflows even when
  rho*r0 is large and the distribution lives at 1e15 m scales;
* truncation points come from the exact exponential tail rate of X, the
  nontrivial root of theta = rho * exp(-(rho - theta) r0).

The gap density has three branches: a closed form on [r0, 2r0), the
composition quadrature above it, and the exact two-pole tail expansion
far out.  The closed form and the tail are checked against the quadrature
route by the test suite, not at run time.

Evaluation is batched: the density takes an array of points, picks each
point's branch by mask, and runs the quadrature of all points in one
adaptive-Simpson pass, each point owning its own panels and tolerances.
``ChGapDistribution`` hands every grid of uncached points to it at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import (DEFAULT_SPEC, QuadratureError, QuadratureSpec,
                       _adaptive_simpson_stack, _neumaier_step,
                       exp_integral_e1, integrate_panel_doubling)
from .params import Fidelity, ModelParams

#: Quadrature settings for the inner (single pdf evaluation) integrals.
#: Relative-accuracy driven: pdf values span hundreds of decades.
_INNER_SPEC = QuadratureSpec(abs_tol=1e-280, rel_tol=1e-9,
                             max_subdivisions=48)

#: e-foldings of headroom kept when windowing exponentially weighted
#: integrands; contributions beyond are < exp(-52) relative.
_EFOLDS = 52.0


class AnalyticError(ArithmeticError):
    """An internal consistency check of the analytic machinery failed."""


class NoSleepOpportunityError(RuntimeError):
    """P{X > D} is numerically zero: the BS never gets to sleep."""


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
    if out.ndim == 0:
        return float(out)
    return out


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


def _cluster_len_pdf_grid(x0, rho: float, r0: float):
    """Conditional cluster-span density and cancellation diagnostic, vectorized.

    The alternating series is evaluated in log space (so neither the
    u^(m-1) powers nor the exp(-rho m r0) factors can overflow) as a
    terms-by-points matrix, rescaled by the per-point maximum exponent and
    combined with pairwise summation.  The number of retained terms is
    bounded through the single hump of the term magnitudes at
    m* ~ rho x exp(-rho r0).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    alpha = rho * r0
    n = len(x0)
    live = x0 >= 0.0
    if not np.any(live):
        return np.zeros(n), np.ones(n)

    # ln of rho/(e^alpha - 1), overflow-safe for any alpha
    ln_pref = math.log(rho) - alpha - math.log1p(-math.exp(-alpha)) \
        if alpha < 700 else math.log(rho) - alpha

    max_floor = int(np.max(np.floor(x0[live] / r0)))
    hump = rho * float(np.max(x0[live])) * math.exp(-min(alpha, 700.0))
    m_max = min(max_floor, int(math.ceil(hump + 40.0 * math.sqrt(hump + 4.0)
                                         + 60.0)))
    if m_max < 1:
        value = np.where(live, math.exp(ln_pref), 0.0)
        return value, np.ones(n)

    m = np.arange(1, m_max + 1, dtype=float)[:, None]
    ln_fact = np.concatenate([[0.0], np.cumsum(np.log(m[:, 0]))])
    u = rho * (x0[None, :] - m * r0)
    ok = u > 0.0
    first = (m == 1.0) & (u >= 0.0)
    u_safe = np.where(ok, u, 1.0)
    with np.errstate(over="ignore"):
        ln_t = np.where(m == 1.0, 0.0, (m - 1.0) * np.log(u_safe)) \
            + np.log(u_safe + m) - alpha * m - ln_fact[1:, None]
        ln_t = np.where(first, np.log1p(np.maximum(u, 0.0)) - alpha, ln_t)
    ln_t = np.where(ok | first, ln_t, -np.inf)

    # scale by the per-point peak exponent (the m = 0 term contributes
    # exponent 0) and combine with alternating signs
    peak = np.maximum(ln_t.max(axis=0), 0.0)
    with np.errstate(invalid="ignore"):
        w = np.exp(ln_t - peak[None, :])
    w[~(ok | first)] = 0.0
    signs = np.where(np.arange(1, m_max + 1) % 2 == 1, -1.0, 1.0)[:, None]
    total = np.exp(-peak) + np.sum(signs * w, axis=0)
    abs_sum = np.exp(-peak) + np.sum(w, axis=0)

    with np.errstate(over="ignore"):
        value = np.where(live, np.exp(ln_pref + peak) * total, 0.0)
    canc = np.where(live, abs_sum / np.maximum(np.abs(total), 1e-300), 1.0)
    return value, canc


def _gap_pdf_quad(x, params: ModelParams) -> np.ndarray:
    """Gap density by split-panel quadrature of the span/exponential
    convolution (the composition route; no closed forms involved), at an
    array of points; every point is one owner of a single batched
    adaptive-Simpson pass.

    Integration runs in the shifted coordinate w = x_hi - x0 so the
    exponential weight is always exp(-rho w) with small w, immune to
    overflow and to cancellation in x_hi - x0 at 1e15 m scales.
    """
    rho, r0 = params.rho, params.r0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = x - r0
    alpha = rho * r0
    lam = cluster_span_decay_rate(rho, r0)

    # effective support of the span density: geometric cluster-size tail
    ell = -math.log1p(-math.exp(-alpha)) if alpha < 700 else math.exp(-alpha)
    support = r0 * (1.0 + _EFOLDS / max(ell, 1e-300))

    x_hi = np.minimum(u, support)
    if lam > rho:
        x_hi = np.minimum(x_hi, _EFOLDS / (lam - rho))
    if rho > lam:
        x_lo = np.maximum(0.0, x_hi - _EFOLDS / (rho - lam))
    else:
        x_lo = np.zeros_like(x_hi)
    log_pref = -rho * (u - x_hi)
    w_max = x_hi - x_lo

    out = np.zeros(len(x))
    live = np.flatnonzero((u > 0.0) & (log_pref >= -745.0) & (w_max > 0.0))
    if not len(live):
        return out
    x_hi, w_max = x_hi[live], w_max[live]
    k = np.arange(len(live))

    # panel splits where the span density has its piece boundaries:
    # w = x_hi - j r0 for j from floor(x_hi/r0) down to max(ceil(x_lo/r0), 1)
    j_hi = np.floor(x_hi / r0)
    n_j = np.maximum(j_hi - np.maximum(np.ceil(x_lo[live] / r0), 1.0) + 1.0,
                     0.0).astype(np.intp)
    rep = np.repeat(k, n_j)
    j = j_hi[rep] - (np.arange(len(rep)) - np.repeat(np.cumsum(n_j) - n_j,
                                                     n_j))
    w = x_hi[rep] - j * r0
    inside = (w > 0.0) & (w < w_max[rep])
    owner = np.concatenate([k, rep[inside], k])
    edges = np.concatenate([np.zeros(len(k)), w[inside], w_max])
    order = np.lexsort((edges, owner))

    def integrand(w, own):
        span_vals, _ = _cluster_len_pdf_grid(x_hi[own] - w, rho, r0)
        return span_vals * np.exp(-rho * w)

    # rounding-noise amplitude of one span-density evaluation: machine eps
    # times the magnitude of the series terms, largest at x0 = x_hi
    v_hi, c_hi = _cluster_len_pdf_grid(x_hi, rho, r0)
    noise_scale = 30.0 * np.finfo(float).eps * c_hi * np.abs(v_hi)

    inner = _adaptive_simpson_stack(integrand, edges[order], _INNER_SPEC,
                                    noise_scale=noise_scale,
                                    owner=owner[order])
    out[live] = rho * np.exp(log_pref[live]) * inner
    return out


@functools.lru_cache(maxsize=4096)
def _gap_tail_switch(params: ModelParams) -> float:
    """Abscissa beyond which the exact two-pole tail expansion is used.

    The transform of the gap density has two real poles, at -lambda0 (from
    the geometric cluster-size denominator) and at -rho (from the
    inter-cluster exponential).  Every other pole decays faster than
    exp(-mu2 x) with mu2 = (alpha + ln(2 pi / alpha))/r0, so 32 e-foldings
    past the switch point the two-pole sum is accurate to ~1e-14.  Below
    the switch the series/quadrature route is itself well conditioned.
    """
    rho, r0 = params.rho, params.r0
    alpha = rho * r0
    lam0 = cluster_span_decay_rate(rho, r0)
    mu2 = (alpha + math.log(2.0 * math.pi / alpha)) / r0
    gap = mu2 - min(lam0, rho)
    if gap <= 0.0:
        return math.inf
    return r0 + 32.0 / gap


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


def _gap_pdf_first_branch(x, params: ModelParams):
    """Closed form on [r0, 2r0): rho (1 - e^{-rho(x-r0)})/(e^{rho r0} - 1)."""
    rho, r0 = params.rho, params.r0
    alpha = rho * r0
    return rho * (-np.expm1(-rho * (x - r0))) * math.exp(-alpha) \
        / (-math.expm1(-alpha))


def _gap_pdf_paper(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Paper-fidelity density at points above r0, each branch applied to
    the points it covers in one call."""
    out = np.empty(len(x))
    first = x < 2.0 * params.r0
    tail = ~first & (x >= _gap_tail_switch(params))
    quad = ~first & ~tail
    out[first] = _gap_pdf_first_branch(x[first], params)
    out[tail] = _gap_pdf_tail_paper(x[tail], params)
    out[quad] = _gap_pdf_quad(x[quad], params)
    return out


def _gap_pdf_mix(x, params: ModelParams, paper_pdf):
    """Zero at and below r0, ``paper_pdf`` above it, and in the corrected
    fidelity the single-vehicle-cluster component mixed in with weight
    exp(-rho r0).  Array in, array out; a 0-d input gives a float."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.zeros(len(flat))
    above = flat > params.r0
    if np.any(above):
        xa = flat[above]
        paper = paper_pdf(xa, params)
        if params.fidelity is Fidelity.PAPER:
            out[above] = paper
        else:
            p_single = math.exp(-params.rho * params.r0)
            out[above] = p_single * intercluster_gap_pdf(xa, params) \
                + (1.0 - p_single) * paper
    if x.ndim == 0:
        return float(out[0])
    return out.reshape(x.shape)


def ch_gap_pdf(x, params: ModelParams):
    """Density of the distance X between adjacent cluster heads, in 1/m,
    at a point or an array of points (a 0-d input returns a float).

    Zero below r0.  On [r0, 2r0) the closed form is used; the test suite
    checks it against ch_gap_pdf_quadrature to 1e-10.  Beyond
    ``_gap_tail_switch`` the two-pole tail is used, and in between the
    composition quadrature, all points of an array in one batched pass.
    The corrected fidelity adds the single-vehicle-cluster component with
    weight exp(-rho r0).
    """
    return _gap_pdf_mix(x, params, _gap_pdf_paper)


def ch_gap_pdf_quadrature(x, params: ModelParams):
    """Pure composition-quadrature gap density (no closed-form branches);
    the reference the closed forms are checked against.  Takes a point or
    an array of points, as ch_gap_pdf does."""
    return _gap_pdf_mix(x, params, _gap_pdf_quad)


class ChGapDistribution:
    """Evaluable pdf/cdf of the cluster-head gap X, truncated by tail mass.

    Construction lays out integration panels (piece boundaries at multiples
    of r0, then geometrically growing spans) and extends them until the
    newest panel carries less than ``DEFAULT_SPEC.tail_mass_tol`` of the
    running total.
    The panels and their masses are fixed at construction, but evaluation
    is not read-only: every pdf value computed is kept in a per-instance
    dict, which grows as the instance is used, because the nested
    panel-doubling grids and repeated integrals re-visit about half of
    their nodes.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.tail_rate = gap_tail_rate(params.rho, params.r0)
        self._pdf_cache: dict[float, float] = {}
        self._build_panels()
        self.x_max = float(self._edges[-1])

    # -- evaluation ------------------------------------------------------

    def pdf(self, x: float) -> float:
        return float(self._pdf_vec([x])[0])

    def _pdf_vec(self, xs) -> np.ndarray:
        """pdf at each of ``xs``, evaluating all cache misses in one
        ch_gap_pdf call."""
        cache = self._pdf_cache
        keys = np.asarray(xs, dtype=float).tolist()
        missing = [x for x in dict.fromkeys(keys) if x not in cache]
        if missing:
            values = ch_gap_pdf(np.asarray(missing), self.params)
            cache.update(zip(missing, values.tolist()))
        return np.array([cache[x] for x in keys])

    def cdf(self, x: float) -> float:
        x = float(x)
        if x <= self.params.r0:
            return 0.0
        if x >= self.x_max:
            return float(self._cum[-1])
        i = int(np.searchsorted(self._edges, x, side="right")) - 1
        partial = 0.0
        if x > self._edges[i]:
            partial = integrate_panel_doubling(
                self._pdf_vec, float(self._edges[i]), x,
                abs_tol=DEFAULT_SPEC.abs_tol, rel_tol=DEFAULT_SPEC.rel_tol)
        return float(self._cum[i] + partial)

    @property
    def total_mass(self) -> float:
        """Integral of the pdf up to x_max; 1 to within quadrature accuracy."""
        return float(self._cum[-1])

    def integral(self, weight: Optional[Callable] = None,
                 lo: Optional[float] = None) -> float:
        """Integral of weight(x) * pdf(x) from max(lo, r0) to x_max.

        ``weight`` takes an ndarray; None means unit weight.
        """
        lo = self.params.r0 if lo is None else max(lo, self.params.r0)
        if lo >= self.x_max:
            return 0.0
        edges = self._edges[self._edges > lo]
        edges = np.concatenate([[lo], edges])
        if weight is None:
            f = self._pdf_vec
        else:
            f = lambda xs: weight(xs) * self._pdf_vec(xs)
        total, comp = 0.0, 0.0
        for a, b in zip(edges, edges[1:]):
            part = integrate_panel_doubling(
                f, float(a), float(b), abs_tol=DEFAULT_SPEC.abs_tol,
                rel_tol=DEFAULT_SPEC.rel_tol)
            total, comp = _neumaier_step(total, comp, part)
        return total + comp

    # -- construction ----------------------------------------------------

    def _panel_mass(self, lo: float, hi: float) -> float:
        return integrate_panel_doubling(self._pdf_vec, lo, hi,
                                        abs_tol=DEFAULT_SPEC.abs_tol,
                                        rel_tol=DEFAULT_SPEC.rel_tol)

    def _build_panels(self):
        rho, r0 = self.params.rho, self.params.r0
        alpha = rho * r0
        ell = -math.log1p(-math.exp(-alpha)) if alpha < 700 \
            else math.exp(-alpha)
        support = r0 * (1.0 + _EFOLDS / max(ell, 1e-300))
        n_kinks = int(min(max(4.0, math.ceil(support / r0) + 1,),
                          max(4.0, math.ceil(_EFOLDS / max(alpha, 1e-9))),
                          120.0))
        edges = [r0 * j for j in range(1, n_kinks + 1)]
        # bridge geometrically out to the tail-rate scale before applying
        # the mass-driven stopping rule
        while edges[-1] - r0 < 10.0 / self.tail_rate:
            edges.append(r0 + 2.0 * (edges[-1] - r0))

        masses = [self._panel_mass(a, b) for a, b in zip(edges, edges[1:])]
        total, comp = 0.0, 0.0
        for mss in masses:
            total, comp = _neumaier_step(total, comp, mss)

        for _ in range(40):
            new = r0 + 2.0 * (edges[-1] - r0)
            mss = self._panel_mass(edges[-1], new)
            edges.append(new)
            masses.append(mss)
            total, comp = _neumaier_step(total, comp, mss)
            if mss < DEFAULT_SPEC.tail_mass_tol * max(total + comp, 1e-300):
                break
        else:
            raise QuadratureError("gap-distribution tail mass not converging",
                                  total + comp)
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
    mean_inv_gap: float                      # integral_D^inf f(x)/x dx, 1/m


def expected_ch_gap(params: ModelParams,
                    dist: Optional[ChGapDistribution] = None) -> float:
    """E[X] by quadrature against the gap density.

    In corrected fidelity the result is cross-checked against the
    independent decomposition E[span] + r0 + 1/rho (Wald identity for the
    geometric number of intra-cluster gaps), which collapses to
    e^{rho r0}/rho.
    """
    dist = dist or ChGapDistribution(params)
    m1 = dist.integral(lambda xs: xs)
    if params.fidelity is Fidelity.CORRECTED and params.rho_r0 < 700.0:
        target = math.exp(params.rho_r0) / params.rho
        if abs(m1 - target) > 1e-3 * target:
            raise AnalyticError(
                f"E[X] quadrature {m1!r} deviates from decomposition "
                f"identity {target!r} by more than 0.1%")
    return m1


def _sleep_integrals(params: ModelParams, dist: ChGapDistribution):
    """(P{X>D}, integral (x-D) f dx, integral f/x dx), all from D up.

    P{X>D} is taken as 1 - F(D), which keeps the shortfall's relative
    precision where F(D) is tiny, clamped to [0, 1] because the truncated
    mass can exceed 1 by its quadrature error; past the truncation point
    all are zero.
    """
    D = params.D
    prob = min(max(1.0 - dist.cdf(D), 0.0), 1.0) if D < dist.x_max else 0.0
    m_excess = dist.integral(lambda xs: xs - D, lo=D)
    inv = dist.integral(lambda xs: 1.0 / xs, lo=D)
    return prob, m_excess, inv


def expected_sleep_time(params: ModelParams,
                        dist: Optional[ChGapDistribution] = None) -> float:
    """E[T_off] given a sleep period occurs: E[1/V] * E[X - D | X > D]."""
    dist = dist or ChGapDistribution(params)
    prob, m_excess, _ = _sleep_integrals(params, dist)
    if prob < 1e-12:
        raise NoSleepOpportunityError(
            f"P(X > D) = {prob!r} at D={params.D}: no sleep opportunity")
    return params.mean_inv_speed * m_excess / prob


def cycle_power_saved(x: float, v: float, params: ModelParams) -> float:
    """Power saved over one renewal cycle with gap x and speed v.

    Zero when the gap never clears the coverage width; possibly negative
    when the sleep is too short to amortize the switching energy (reported
    as computed, not clamped).
    """
    if v <= 0:
        raise ValueError("speed must be positive")
    if x <= params.D:
        return 0.0
    t_off = (x - params.D) / v
    return (t_off * params.P0 - params.Ec) / (x / v)


def expected_power_saved(params: ModelParams,
                         dist: Optional[ChGapDistribution] = None) -> float:
    """Unconditional per-cycle expected power saved, in W."""
    dist = dist or ChGapDistribution(params)
    prob, _, inv = _sleep_integrals(params, dist)
    return params.P0 * prob - params.P0 * params.D * inv \
        - params.Ec * params.mean_speed * inv


def baseline_power_saved(params: ModelParams) -> float:
    """Expected power saved without vehicle-to-vehicle relaying.

    The r0 -> 0 limit: every vehicle is its own cluster head and X is
    exponential(rho), so the tail integrals reduce to the exponential
    integral E1.
    """
    rho, D = params.rho, params.D
    z = rho * D
    tail = math.exp(-z) if z < 745.0 else 0.0
    e1 = exp_integral_e1(z)
    return params.P0 * tail \
        - (params.P0 * D + params.Ec * params.mean_speed) * rho * e1


def energy_figures(params: ModelParams,
                   dist: Optional[ChGapDistribution] = None) -> EnergyFigures:
    """All analytic outputs at one parameter point, sharing one distribution
    (and thus one truncation point, keeping P{X>D} + F(D) consistent)."""
    dist = dist or ChGapDistribution(params)
    prob, m_excess, inv = _sleep_integrals(params, dist)
    gap = expected_ch_gap(params, dist)
    if prob < 1e-12:
        sleep_time = None
    else:
        sleep_time = params.mean_inv_speed * m_excess / prob
    power = params.P0 * prob - params.P0 * params.D * inv \
        - params.Ec * params.mean_speed * inv
    return EnergyFigures(expected_gap=gap, prob_sleep=prob,
                         expected_sleep_time=sleep_time,
                         expected_power_saved=power,
                         mean_speed=params.mean_speed, mean_inv_gap=inv)
