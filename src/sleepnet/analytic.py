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

Two fidelities are supported.  "corrected" is the law of the generative
model, the density f of X itself.  "paper" conditions the cluster on at
least two vehicles: it removes the single-vehicle term, weight
exp(-rho*r0) times the inter-cluster density rho exp(-rho (x - r0)), from
f and renormalises.

f solves the linear delay equation f'(x) = -lam f(x - r0),
lam = rho exp(-rho*r0), with f = 0 below r0 and f = lam on [r0, 2r0)
(the delayed exponential).  It has two branches:

* the method of steps up to ``_gap_tail_switch``: on each r0-segment f is
  lam times a polynomial in the segment's local coordinate, whose
  coefficients follow from the previous segment's by one integration;
  one cached table holds them all (row 0, the constant 1, covers
  [r0, 2r0)), evaluated in one Horner pass;
* the exact two-pole tail expansion past the switch.

The paper density is (f - lam exp(-rho (x - r0))) / (1 - exp(-rho*r0)),
one subtraction on either branch, except on [r0, 2r0), where the
difference cancels and its closed form
rho (1 - e^{-rho(x-r0)}) / (e^{rho r0} - 1) is used.

The test suite checks every branch against independent oracles (the
composition quadrature of the span series and an 80-digit decimal
evaluation of the delayed exponential), not at run time.  Truncation
points come from the exact exponential tail rate of X, the nontrivial
root of theta = rho * exp(-(rho - theta) r0).

Evaluation is batched over points and over laws: the density of many
laws (``_laws_pdf``) reads each point's law constants through a per-point
law index and picks each point's branch by mask; ``ch_gap_pdf`` is its
one-law case.  Panel-doubling Simpson integrates a grid's panels in one
batch, so each doubling level costs one density call for all of them:
``grid_energy_figures`` builds every cell's ``ChGapDistribution`` in one
call for the first panels plus one per lockstep tail step, and takes all
the cells' expectations in one more.  Every panel converges on its own,
so each cell gets the bits it gets alone.  E[X] needs no integral
(``expected_ch_gap``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from .numerics import (QuadratureError, exp_integral_e1,
                       integrate_panel_doubling)
from .params import Fidelity, ModelParams, check_density, check_sparse

#: Tolerances of the panel-doubling integrals against the gap density.
_ABS_TOL = 1e-10
_REL_TOL = 1e-8
#: The gap distribution is truncated where the newest panel carries less
#: than this share of the running mass.
_TAIL_MASS_TOL = 1e-9

#: e-foldings of headroom kept when windowing exponentially weighted
#: integrands; contributions beyond are < exp(-52) relative.
_EFOLDS = 52.0

#: Smallest rho*r0 the paper law is built at: its single-vehicle
#: subtraction leaves a relative error of about 2.5e-16/(rho*r0), 4.9e-9
#: here and 2.1e-8 at 1e-8 (``tests/oracles.py::gap_pdf_decimal``).
PAPER_RHO_R0_MIN = 5e-8


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


def _laws_tail(x: np.ndarray, law: np.ndarray, laws) -> np.ndarray:
    """Exact two-real-pole tail of the corrected gap density f of the law
    ``law[i]`` of ``laws`` at ``x[i]``, used only past ``_gap_tail_switch``.

    f(x) = A1 exp(-lambda0 x) + A2 exp(-rho x) with residues
    A1 = lambda0/(1 - lambda0 r0) and A2 = rho/(1 - rho r0) of opposite
    signs, summed as f = -pos e^{-rate_pos x} expm1(ln_ratio) with
    ln_ratio = ln(-neg/pos) - (rate_neg - rate_pos) x (pos, rate_pos from
    the positive term, neg, rate_neg from the negative one), which keeps
    the near-degenerate band lambda0 ~ rho fully accurate.  ln_ratio <= 0
    wherever the tail is used, x >= switch > r0: rate_neg > rate_pos, so
    it falls with x, and its zero lies below r0 (between 0.67 r0 and
    0.991 r0 for rho r0 in [1e-4, 700]).  At rho r0 = 1 the poles merge
    and the double-pole limit (2x/r0^2 - 4/(3 r0)) e^{-rho x} applies.
    """
    f = np.empty(len(x))
    double = laws.double[law]
    two, dbl = np.flatnonzero(~double), np.flatnonzero(double)
    k = law[two]
    f[two] = np.maximum(laws.neg_pos[k] * np.exp(-laws.rate_pos[k] * x[two])
                        * np.expm1(laws.ln_ratio[k] - laws.rate_gap[k]
                                   * x[two]), 0.0)
    k = law[dbl]
    f[dbl] = np.maximum(np.exp(-laws.rho[k] * x[dbl]) * (
        2.0 * x[dbl] / laws.r0_sq[k] - laws.shift[k]), 0.0)
    return f


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
        table[k, 1:k + 1] = -c * (p / np.arange(1.0, k + 1.0))
        table[k, 0] = np.polyval(p[::-1], 1.0)
    table.flags.writeable = False
    return table


def _law_constants(params: ModelParams) -> dict:
    """The scalars one gap law's density reads, each by the expression its
    branch has always used; the poles' are nan at the double pole."""
    rho, r0 = params.rho, params.r0
    alpha = rho * r0
    law = dict(rho=rho, r0=r0, switch=_gap_tail_switch(params),
               paper=params.fidelity is Fidelity.PAPER,
               lam=rho * math.exp(-alpha), expm1_den=-math.expm1(-alpha),
               tail_den=1.0 - math.exp(-alpha), single=math.exp(-alpha),
               double=abs(alpha - 1.0) <= 1e-6, r0_sq=r0 ** 2,
               shift=4.0 / (3.0 * r0), neg_pos=math.nan, rate_pos=math.nan,
               ln_ratio=math.nan, rate_gap=math.nan)
    if not law["double"]:
        lam0 = cluster_span_decay_rate(rho, r0)
        a1, a2 = lam0 / (1.0 - lam0 * r0), rho / (1.0 - alpha)
        pos, rate_pos, neg, rate_neg = ((a1, lam0, a2, rho) if a1 > 0.0
                                        else (a2, rho, a1, lam0))
        law.update(neg_pos=-pos, rate_pos=rate_pos, rate_gap=rate_neg
                   - rate_pos, ln_ratio=math.log(-neg / pos))
    return law


@functools.lru_cache(maxsize=64)
def _laws(cells: tuple) -> SimpleNamespace:
    """The ``_law_constants`` of the gap laws of cells as arrays, one entry
    a law, and their method-of-steps tables in one zero-padded stack."""
    rows = [_law_constants(params) for params in cells]
    tables = [_gap_segment_polys(params) for params in cells]
    n = max(len(table) for table in tables)
    laws = SimpleNamespace(polys=np.zeros((len(cells), n, n)), **{
        name: np.array([row[name] for row in rows]) for name in rows[0]})
    for i, table in enumerate(tables):
        laws.polys[i, :len(table), :len(table)] = table
    return laws


def _one_law(density, x, params: ModelParams):
    """``density`` (``_laws_pdf`` or ``_laws_tail``) of one law at a
    point (a float) or an array of points."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = density(flat, np.zeros(len(flat), dtype=np.intp), _laws((params,)))
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _laws_pdf(x: np.ndarray, law: np.ndarray, laws) -> np.ndarray:
    """``ch_gap_pdf`` of the law ``law[i]`` of ``laws`` at ``x[i]``.  Each
    branch and correction runs on its own points only, with its own law's
    constants, so each value has the bits of its law alone; a segment
    below the batch's highest adds exact zeros in the Horner pass."""
    out = np.zeros(len(x))
    r0, paper = laws.r0[law], laws.paper[law]
    # the paper law's closed form covers [r0, 2r0), past the switch too
    first = paper & (x > r0) & (x < 2.0 * r0)
    tail = (x >= laws.switch[law]) & ~first
    steps = np.flatnonzero(np.where(paper, x >= 2.0 * r0, x > r0) & ~tail)
    if len(steps):
        k, xs, r0s = law[steps], x[steps], r0[steps]
        y = xs / r0s
        seg = np.floor(y).astype(np.intp) - 1
        t = y - (seg + 1)
        top = int(seg.max())              # columns past it are all zero
        coef = laws.polys[k, seg, :top + 1]
        f = np.zeros(len(steps))
        for j in range(top, -1, -1):
            f = coef[:, j] + f * t
        on = np.flatnonzero(paper[steps])
        f[on] -= np.exp(-laws.rho[k[on]] * (xs[on] - r0s[on]))
        f *= laws.lam[k]
        f[on] /= laws.expm1_den[k[on]]
        out[steps] = f
    tail = np.flatnonzero(tail)
    k, xt = law[tail], x[tail]
    f = _laws_tail(xt, k, laws)
    on = np.flatnonzero(paper[tail])
    rho = laws.rho[k[on]]
    f[on] = np.maximum((f[on] - rho * np.exp(-rho * xt[on]))
                       / laws.tail_den[k[on]], 0.0)
    out[tail] = f
    first = np.flatnonzero(first)
    k = law[first]
    rho = laws.rho[k]
    out[first] = rho * (-np.expm1(-rho * (x[first] - r0[first]))) \
        * laws.single[k] / laws.expm1_den[k]
    return out


def ch_gap_pdf(x, params: ModelParams):
    """Density of the distance X between adjacent cluster heads, in 1/m,
    at a point or an array of points (a 0-d input returns a float).

    Zero at and below r0.  Above it the corrected law is the solution f of
    the delay equation f'(x) = -lam f(x - r0), lam = rho e^{-rho r0}:
    lam p_k(t) from ``_gap_segment_polys`` below ``_gap_tail_switch``, all
    such points of an array in one Horner pass, and the two-pole tail past
    it.  The paper law removes the single-vehicle term from f:
    (f - lam e^{-rho(x-r0)}) / (1 - e^{-rho r0}), with the closed form
    rho (1 - e^{-rho(x-r0)}) / (e^{rho r0} - 1) on [r0, 2r0), which takes
    precedence where the switch lies below 2 r0.  The one-law case of
    ``_laws_pdf``.

    Against an 80-digit evaluation of the delayed-exponential series, on
    r0 = 100 from 1.003 r0 to 30 r0 past the switch: the corrected law
    is within 1e-15 relative.  The paper law's subtraction cancels as
    rho r0 falls: it is within 4e-12, 4e-13 and 3e-14 relative past the
    switch at rho r0 = 1e-4, 1e-3 and 1e-2, and within 2e-12 and 2e-13
    below it at the first two.
    """
    return _one_law(_laws_pdf, x, params)


def _quad_laws(laws, panels) -> list:
    """The integrals of (law, weight, D, lo, hi) panels against the laws
    of ``laws`` in one batched quadrature; weight 0 is 1, 1 is x - D and
    2 is 1/x, each on its own panels' nodes only."""
    law, weight, at, lo, hi = map(np.array, zip(*panels))

    def integrand(xs, panel):
        ys = _laws_pdf(xs, law[panel], laws)
        on = np.flatnonzero(weight[panel] == 1)
        ys[on] = (xs[on] - at[panel[on]]) * ys[on]
        on = np.flatnonzero(weight[panel] == 2)
        ys[on] = (1.0 / xs[on]) * ys[on]
        return ys

    return _quad(integrand, lo, hi).tolist()


def _quad(fv, lo, hi):
    return integrate_panel_doubling(fv, lo, hi, abs_tol=_ABS_TOL,
                                    rel_tol=_REL_TOL)


class ChGapDistribution:
    """Evaluable pdf/cdf of the cluster-head gap X, truncated by tail mass.

    Construction lays out integration panels (piece boundaries at multiples
    of r0, then geometrically growing spans) and extends them until the
    newest panel carries less than ``_TAIL_MASS_TOL`` of the running total.
    Panel masses, the cdf and every expectation integrate ``ch_gap_pdf``
    by panel-doubling Simpson to ``_ABS_TOL``/``_REL_TOL``, all panels of
    one integral in one batched quadrature.  Construction is the one-law
    case of ``_gap_laws``, through which ``grid_energy_figures`` builds
    a whole grid's laws together, each with the bits it has alone.  The
    instance keeps no cache: it is read-only after construction.
    """

    def __init__(self, params: ModelParams):
        (law,) = _gap_laws([params])
        if isinstance(law, Exception):
            raise law
        vars(self).update(vars(law))

    @classmethod
    def _of(cls, params: ModelParams, edges: list, masses: list):
        dist = cls.__new__(cls)
        dist.params = params
        dist.tail_rate = gap_tail_rate(params.rho, params.r0)
        dist._edges = np.asarray(edges)
        dist._cum = np.concatenate([[0.0], np.cumsum(masses)])
        dist.x_max = float(dist._edges[-1])
        return dist

    # -- evaluation ------------------------------------------------------

    def pdf(self, x):
        """``ch_gap_pdf`` at a point (a float) or an array of points."""
        return ch_gap_pdf(x, self.params)

    def _split(self, x: float) -> tuple:
        """The panels at x: F(x) as the mass of the whole panels below x
        and the start of the part panel [start, x] (None if there is
        none), and the (lo, hi) panels from max(x, r0) up to x_max."""
        if x >= self.x_max:
            return float(self._cum[-1]), None, []
        lo = max(x, self.params.r0)
        edges = np.concatenate([[lo], self._edges[self._edges > lo]])
        above = list(zip(edges[:-1], edges[1:]))
        if x <= self.params.r0:
            return 0.0, None, above
        i = int(np.searchsorted(self._edges, x, side="right")) - 1
        return self._cum[i], (float(self._edges[i]) if x > self._edges[i]
                              else None), above

    def cdf(self, x: float) -> float:
        base, start, _ = self._split(float(x))
        return float(base + (0.0 if start is None else _quad(
            lambda xs, _: self.pdf(xs), start, float(x))))

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
        panels = self._split(self.params.r0 if lo is None else lo)[2]
        if not panels:
            return 0.0
        f = (lambda xs, _: self.pdf(xs)) if weight is None \
            else (lambda xs, _: weight(xs) * self.pdf(xs))
        return math.fsum(_quad(f, *map(np.array, zip(*panels))).tolist())


def _first_edges(params: ModelParams) -> list:
    """A law's panel edges before its mass-driven tail steps; raises past
    ``check_density``'s limit, below ``check_sparse``'s or, for the paper
    law, PAPER_RHO_R0_MIN, or where the first tail edge overflows."""
    check_density(params)
    check_sparse(params)
    rho, r0 = params.rho, params.r0
    alpha = rho * r0
    if params.fidelity is Fidelity.PAPER and alpha < PAPER_RHO_R0_MIN:
        raise ArithmeticError(
            f"rho*r0 = {alpha!r} (rho={rho!r}, r0={r0!r}) is below the paper"
            f" law's limit {PAPER_RHO_R0_MIN!r}, where it keeps < 8 digits")
    ell = -math.log1p(-math.exp(-alpha)) if alpha < 700 \
        else math.exp(-alpha)
    support = 1.0 + _EFOLDS / max(ell, 1e-300)     # in units of r0
    n_kinks = int(min(max(4.0, math.ceil(support) + 1,),
                      max(4.0, math.ceil(_EFOLDS / max(alpha, 1e-9))),
                      120.0))
    edges = [r0 * j for j in range(1, n_kinks + 1)]
    # bridge geometrically out to the tail-rate scale before applying
    # the mass-driven stopping rule
    while edges[-1] - r0 < 10.0 / gap_tail_rate(rho, r0):
        edges.append(r0 + 2.0 * (edges[-1] - r0))
    if not math.isfinite(2.0 * edges[-1]):   # the first tail edge
        raise _edge_overflow(params)
    return edges


def _edge_overflow(params: ModelParams) -> ArithmeticError:
    rho, r0 = params.rho, params.r0
    return ArithmeticError(
        f"rho*r0 = {rho * r0!r} (rho={rho!r}, r0={r0!r}): the gap law's "
        f"tail decays at {gap_tail_rate(rho, r0)!r} per m, too slowly for "
        f"its panel edges to stay below the largest double")


def _gap_laws(cells: Sequence[ModelParams]) -> list:
    """The ChGapDistribution of each cell, or the ``ArithmeticError`` or
    ``ValueError`` its construction raises; raises only what a batched
    quadrature raises.  All laws' first panels take one quadrature call,
    then their tail steps advance in lockstep, one call a step."""
    out, edges, masses = [None] * len(cells), {}, {}
    for i, params in enumerate(cells):
        try:
            edges[i] = _first_edges(params)
        except (ArithmeticError, ValueError) as exc:
            out[i] = exc
    if not edges:
        return out
    laws = _laws(tuple(cells[i] for i in edges))
    law = {i: k for k, i in enumerate(edges)}
    first = iter(_quad_laws(laws, [(law[i], 0, 0.0, a, b) for i in edges
                                   for a, b in zip(edges[i], edges[i][1:])]))
    for i in edges:
        masses[i] = [next(first) for _ in edges[i][1:]]
    active = list(edges)
    for _ in range(40):
        new = {i: cells[i].r0 + 2.0 * (edges[i][-1] - cells[i].r0)
               for i in active}
        for i in active:
            if not math.isfinite(new[i]):
                out[i] = _edge_overflow(cells[i])
        active = [i for i in active if out[i] is None]
        if not active:
            break
        for i, mss in zip(active, _quad_laws(laws, [
                (law[i], 0, 0.0, edges[i][-1], new[i]) for i in active])):
            edges[i].append(new[i])
            masses[i].append(mss)
            if mss < _TAIL_MASS_TOL * max(math.fsum(masses[i]), 1e-300):
                out[i] = ChGapDistribution._of(cells[i], edges[i], masses[i])
        active = [i for i in active if out[i] is None]
    for i in active:
        out[i] = QuadratureError("gap-distribution tail mass not converging",
                                 math.fsum(masses[i]))
    return out


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


def _expectations(pairs: Sequence[tuple]) -> list:
    """The EnergyFigures of each (params, dist) pair, the law dist's and D
    and the energy constants params', or the exception E[X] raises;
    raises only what the batched quadrature raises.  All the pairs' F(D)
    part panels and their panels of E[X - D; X > D] and E[1/X; X > D]
    take one quadrature call."""
    panels, parts = [], []
    for k, (params, dist) in enumerate(pairs):
        D = params.D
        base, start, above = dist._split(D)
        panels += [(k, 0, D, start, D)] * (start is not None) + [
            (k, w, D, a, b) for w in (1, 2) for a, b in above]
        parts.append((base, start is not None, len(above)))
    values = iter(_quad_laws(_laws(tuple(dist.params for _, dist in pairs)),
                             panels) if panels else ())
    out = []
    for (params, dist), (base, partial, n) in zip(pairs, parts):
        cdf = float(base + (next(values) if partial else 0.0))
        m_excess = math.fsum(next(values) for _ in range(n))
        inv = math.fsum(next(values) for _ in range(n))
        prob = min(max(1.0 - cdf, 0.0), 1.0) if params.D < dist.x_max \
            else 0.0
        try:
            out.append(EnergyFigures(
                expected_gap=expected_ch_gap(params), prob_sleep=prob,
                expected_sleep_time=(params.mean_inv_speed * m_excess / prob
                                     if prob >= 1e-12 else None),
                expected_power_saved=_power_saved(params, prob, inv),
                mean_speed=params.mean_speed))
        except (ArithmeticError, ValueError) as exc:
            out.append(exc)
    return out


def energy_figures(params: ModelParams) -> EnergyFigures:
    """All analytic outputs at one parameter point, sharing one distribution
    (and thus one truncation point, keeping P{X>D} + F(D) consistent).

    P{X>D} is taken as 1 - F(D), which keeps the shortfall's relative
    precision where F(D) is tiny, clamped to [0, 1] because the truncated
    mass can exceed 1 by its quadrature error; past the truncation point
    it is zero.  E[T_off] = E[1/V] E[X - D; X > D] / P{X>D} is None when
    P{X>D} < 1e-12.  The one-cell case of ``grid_energy_figures``.
    """
    (figures,) = _expectations([(params, ChGapDistribution(params))])
    if isinstance(figures, Exception):
        raise figures
    return figures


def grid_energy_figures(cells: Sequence[ModelParams]) -> list:
    """``energy_figures`` of each cell, bit for bit, or the
    ``ArithmeticError`` or ``ValueError`` it raises; any other exception
    propagates.  All the cells' first panels take one batched quadrature,
    each lockstep tail step one, and all their expectations one
    (``_gap_laws``, ``_expectations``).  If a batched quadrature fails,
    each cell runs again on its own, so each failure lands on its cell.
    """
    def alone(params):
        try:
            return energy_figures(params)
        except (ArithmeticError, ValueError) as exc:
            return exc

    try:
        laws = _gap_laws(cells)
        ok = [i for i, law in enumerate(laws)
              if isinstance(law, ChGapDistribution)]
        for i, figures in zip(ok, _expectations(
                [(cells[i], laws[i]) for i in ok])):
            laws[i] = figures
        return laws
    except (ArithmeticError, ValueError):
        return [alone(params) for params in cells]
