"""Independent reference evaluations used only by the test suite.

- ``compensated_sum``: Neumaier summation with a cancellation index;
- ``ch_gap_pdf_closed_form``: the published double-sum gap density,
  evaluated verbatim and flagged against the program's density;
- ``trunc_exp_pdf`` / ``trunc_exp_nfold_pdf``: the truncated-exponential
  intra-cluster gap and its n-fold convolution, for the span-density
  oracle;
- ``cluster_len_pdf_grid`` / ``gap_pdf_composition``: the cluster-span
  density by its alternating series, and the gap density as the
  convolution of that span with the inter-cluster exponential, integrated
  numerically (the composition route, no delay equation involved);
- ``gap_pdf_decimal`` / ``gap_cdf_decimal``: the density and F(x) of the
  gap law by the delayed-exponential series in 80-digit decimal
  arithmetic;
- ``gap_mean_wald_decimal``: E[X] by Wald's identity over the generative
  model's gaps, in 80-digit decimal arithmetic;
- ``gap_pdf_per_segment``: the gap density with its method-of-steps
  polynomials built one list entry per segment and evaluated by one
  ``P.polyval`` call per segment, the reference the one-pass table
  evaluation must match bit for bit;
- ``integrate_panels_one_by_one``: ``integrate_panel_doubling`` called
  once per panel, the reference its batched form must match bit for bit;
- ``integrate_every_node``: panel-doubling Simpson that evaluates every
  np.linspace node at every level, the reference the midpoint-only form
  must match bit for bit;
- ``timeline_active_intervals``: the exact active intervals of a base
  station on a road of constant-speed vehicles, by interval algebra
  instead of an event loop;
- ``event_loop_timeline``: the heterogeneous timeline's event loop with a
  full stable re-sort and rescan of the road at every event, the
  reference the kept-order kernel must match bit for bit;
- ``single_vehicle_quad``: the single-vehicle cycle's E[x1],
  P{x1 > D}, E[(x1 - D)+] E[1/V] and E[1/x1; x1 > D] by numerical
  integration over x1's density, the reference for the closed forms
  the corrected estimate mixes in;
- ``cycle_batch`` / ``batch_sums`` / ``estimate_energy_batch``: the
  paper-law renewal cycles of ``sample_cycles`` as one array per field,
  each block's stream replayed serially by plain numpy rather than the
  sampler's kernel, their block sums, which must be ``sample_cycles``'s
  bit for bit, and the energy estimate by full-array passes over them,
  mixed for the corrected law with ``single_vehicle_quad``, the
  reference for the pooled block sums;
- ``plain_batch``: the plain sampler of either law, each cycle replaced
  by its single-vehicle cycle (gap x1, same speed) with probability
  exp(-rho r0) by an independent coin under the corrected law, the
  reference the mixed estimate's standard error must not exceed;
- ``ch_gap_samples`` / ``cluster_list``: the window-censored head-to-head
  gaps of a snapshot's clusters, and the clusters as tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import NamedTuple, Optional, Union

import numpy as np
from numpy.polynomial import polynomial as P

from sleepnet.analytic import (_gap_tail_switch, _laws_tail, _one_law,
                               ch_gap_pdf)
from sleepnet.numerics import integrate_panel_doubling
from sleepnet import simulate
from sleepnet.params import Fidelity, ModelParams
from sleepnet.simulate import (ClusterSet, EnergyEstimate, RngSpec,
                               TimelineReport, _as_generator,
                               _timeline_report)


def _neumaier_step(s: float, c: float, x: float) -> tuple[float, float]:
    t = s + x
    if abs(s) >= abs(x):
        c += (s - t) + x
    else:
        c += (x - t) + s
    return t, c


def compensated_sum(terms) -> tuple[float, float]:
    """Neumaier-compensated sum with a cancellation diagnostic.

    Returns (sum, cancellation_index) where the index is
    sum(|terms|) / max(|sum|, tiny); values near 1 mean well-conditioned,
    large values flag catastrophic cancellation.
    """
    s, c = 0.0, 0.0
    abs_total = 0.0
    for x in terms:
        x = float(x)
        s, c = _neumaier_step(s, c, x)
        abs_total += abs(x)
    result = s + c
    if abs_total == 0.0:
        return 0.0, 1.0
    return result, abs_total / max(abs(result), 1e-300)


class ClosedFormGap(NamedTuple):
    value: float
    flagged: bool
    reference: float


def ch_gap_pdf_closed_form(x: float, params: ModelParams) -> ClosedFormGap:
    """The published double-sum closed form for x >= 2 r0, evaluated verbatim
    with compensated summation.

    The result is compared against the paper-fidelity density and flagged
    when it disagrees beyond 1e-6 relative (the printed expression mixes a
    dimensionless floor term into an exponent, so disagreement is the
    norm); the reference value is returned alongside.
    """
    rho, r0 = params.rho, params.r0
    if x < 2.0 * r0:
        raise ValueError("closed form applies for x >= 2*r0 only")
    reference = ch_gap_pdf(x, params.replace(fidelity=Fidelity.PAPER))
    if rho * x > 600.0 or x / r0 > 60.0:
        # terms leave double range before cancelling; unevaluable as printed
        return ClosedFormGap(math.nan, True, reference)

    k_max = int(math.floor(x / r0 - 1.0))
    terms = []
    for k in range(k_max + 1):
        for m in range(k):
            fact = math.factorial(m)
            terms.append(math.exp(rho * (k - m) * r0)
                         * (-rho * (k - m) * r0) ** m / fact)
            terms.append(-math.exp(rho * (k - m - 1) * r0)
                         * (-rho * (k - m - 1) * r0) ** m / fact)
        fact_k = math.factorial(k)
        y1 = x - k * r0 - r0
        terms.append(math.exp(rho * y1) * (-rho * y1) ** k / fact_k)
        y2 = k_max - k * r0          # dimensionally inconsistent, as printed
        terms.append(-math.exp(rho * y2) * (-rho * y2) ** k / fact_k)

    total, _ = compensated_sum(terms)
    alpha = rho * r0
    pref = rho * math.exp(-rho * (x - r0)) * math.exp(-alpha) \
        / (-math.expm1(-alpha))
    value = pref * total
    flagged = (not math.isfinite(value)) or \
        abs(value - reference) > 1e-6 * max(abs(reference), 1e-300)
    return ClosedFormGap(value, flagged, reference)


def trunc_exp_pdf(x, rho: float, r0: float) -> np.ndarray:
    """Density of an exponential(rho) conditioned on (0, r0]."""
    x = np.asarray(x, dtype=float)
    norm = -math.expm1(-rho * r0)
    out = np.where((x > 0) & (x <= r0), rho * np.exp(-rho * x) / norm, 0.0)
    # closed lower endpoint uses the right limit so grids sampled at 0 behave
    out = np.where(x == 0.0, rho / norm, out)
    return out


def trunc_exp_nfold_pdf(n: int, rho: float, r0: float,
                        grid: np.ndarray) -> np.ndarray:
    """Density of the sum of n iid truncated exponentials on a uniform grid.

    Computed by repeated trapezoid convolution; transparent O(n * G^2) cost.
    The grid must start at 0 with at least 64 points per r0; values are
    exact-to-trapezoid wherever x <= grid[-1] even if the support extends
    beyond the grid.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    grid = np.asarray(grid, dtype=float)
    dx = grid[1] - grid[0]
    if not np.allclose(np.diff(grid), dx, rtol=1e-9, atol=0.0):
        raise ValueError("grid must be uniform")
    if dx > r0 / 64.0:
        raise ValueError(
            f"grid too coarse: spacing {dx:g} exceeds r0/64 = {r0 / 64.0:g}")
    if grid[0] != 0.0:
        raise ValueError("grid must start at 0")

    base = trunc_exp_pdf(grid, rho, r0)
    # mean-of-limits sample at the r0 jump keeps the trapezoid rule O(dx^2)
    base_w = base.copy()
    at_jump = np.isclose(grid, r0, rtol=0.0, atol=1e-9 * r0)
    base_w[at_jump] *= 0.5
    out = base.copy()
    out_w = base_w
    for _ in range(n - 1):
        full = np.convolve(out_w, base_w)[: len(grid)]
        full -= 0.5 * (out_w[0] * base_w[: len(grid)] + out_w * base_w[0])
        out = full * dx
        out[0] = 0.0
        out_w = out
    return out


def cluster_len_pdf_grid(x0, rho: float, r0: float) -> np.ndarray:
    """Conditional (>= 2 vehicle) cluster-span density at an array of x0.

    The alternating series is evaluated in log space (so neither the
    u^(m-1) powers nor the exp(-rho m r0) factors can overflow) as a
    terms-by-points matrix, rescaled by the per-point maximum exponent
    and combined with pairwise summation.  The number of
    retained terms is bounded through the single hump of the term
    magnitudes at m* ~ rho x exp(-rho r0).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    alpha = rho * r0
    live = x0 >= 0.0
    if not np.any(live):
        return np.zeros(len(x0))

    # ln of rho/(e^alpha - 1), overflow-safe for any alpha
    ln_pref = math.log(rho) - alpha - math.log1p(-math.exp(-alpha)) \
        if alpha < 700 else math.log(rho) - alpha

    max_floor = int(np.max(np.floor(x0[live] / r0)))
    hump = rho * float(np.max(x0[live])) * math.exp(-min(alpha, 700.0))
    m_max = min(max_floor, int(math.ceil(hump + 40.0 * math.sqrt(hump + 4.0)
                                         + 60.0)))
    if m_max < 1:
        return np.where(live, math.exp(ln_pref), 0.0)

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
    with np.errstate(over="ignore"):
        return np.where(live, np.exp(ln_pref + peak) * total, 0.0)


def gap_pdf_composition(x: float, params: ModelParams) -> float:
    """Gap density at one point by the composition route.

    The paper density is rho integral_0^{x-r0} span(x0) e^{-rho(x-r0-x0)} dx0
    with the span density of ``cluster_len_pdf_grid``; it is integrated by
    panel-doubling Simpson over pieces that end at the span density's
    jumps and kinks (multiples of r0) and are at most 2/rho wide, so each
    piece is smooth and its exponential weight moderate.  The corrected
    fidelity mixes in the single-vehicle-cluster component, weight
    exp(-rho r0), whose gap is the inter-cluster one alone,
    rho e^{-rho(x - r0)} above r0.
    """
    rho, r0 = params.rho, params.r0
    u = x - r0
    if u <= 0.0:
        return 0.0
    n_sub = max(1, math.ceil(rho * r0 / 2.0))
    grid = r0 * (np.arange(math.ceil(u / r0 * n_sub) + 1) / n_sub)
    edges = np.append(grid[grid < u], u)
    pieces = [integrate_panel_doubling(
        lambda x0, _: cluster_len_pdf_grid(x0, rho, r0)
        * np.exp(-rho * (u - x0)),
        float(lo), float(hi), abs_tol=1e-300, rel_tol=1e-13)
        for lo, hi in zip(edges, edges[1:])]
    paper = rho * math.fsum(pieces)
    if params.fidelity is Fidelity.PAPER:
        return paper
    p_single = math.exp(-rho * r0)
    return p_single * rho * math.exp(-rho * u) + (1.0 - p_single) * paper


def integrate_panels_one_by_one(fv, lo, hi, **tolerances):
    """``integrate_panel_doubling`` with array bounds, as a loop of
    one-panel calls; ``fv`` still sees each node's index into lo/hi."""
    if np.ndim(lo) == 0:
        return integrate_panel_doubling(fv, lo, hi, **tolerances)
    return np.array([integrate_panel_doubling(
        lambda xs, panel, k=k: fv(xs, panel + k), float(a), float(b),
        **tolerances) for k, (a, b) in enumerate(zip(lo, hi))])


def integrate_every_node(fv, lo: np.ndarray, hi: np.ndarray, *,
                         abs_tol: float, rel_tol: float,
                         max_points: int = 16384) -> np.ndarray:
    """``integrate_panel_doubling`` on panel arrays, every level's nodes
    taken from np.linspace and all evaluated afresh."""
    width = hi - lo
    value = np.empty(len(lo))
    prev, prev_err = np.full(len(lo), math.nan), np.full(len(lo), math.nan)
    todo = np.arange(len(lo))
    n = 8
    while n <= max_points:
        w = width[todo]
        xs = np.linspace(lo[todo], hi[todo], n + 1, axis=1)
        xs[:, 0] += w * 2.0 ** -40
        xs[:, -1] -= w * 2.0 ** -40
        ys = fv(xs.reshape(-1), np.repeat(todo, n + 1)).reshape(xs.shape)
        s = w / n / 3.0 * (ys[:, 0] + ys[:, -1]
                           + 4.0 * ys[:, 1:-1:2].sum(axis=1)
                           + 2.0 * ys[:, 2:-1:2].sum(axis=1))
        err = np.abs(s - prev[todo]) / 15.0
        value[todo] = s + (s - prev[todo]) / 15.0
        done = err <= np.maximum(abs_tol, rel_tol * np.abs(s))
        if n >= 64:
            done |= err >= 0.25 * prev_err[todo]
        prev[todo], prev_err[todo] = s, err
        todo = todo[~done]
        if not len(todo):
            return value
        n *= 2
    raise ArithmeticError("panel refinement exhausted")


def gap_pdf_decimal(x: float, rho: float, r0: float,
                    fidelity=Fidelity.CORRECTED) -> float:
    """Density of the cluster-head gap X at x > r0 by its delayed-
    exponential series.

    The corrected density is
    f(x) = lam * sum_{k: x > (k+1) r0} (-lam (x - (k+1) r0))^k / k!
    with lam = rho e^{-rho r0}; the paper density is
    (f(x) - lam e^{-rho (x - r0)}) / (1 - e^{-rho r0}).  Both are
    evaluated in 80-digit decimal arithmetic.
    """
    if not x > r0:
        raise ValueError("the delayed-exponential series needs x > r0")
    with localcontext() as ctx:
        ctx.prec = 80
        rho_d, r0_d, x_d = Decimal(rho), Decimal(r0), Decimal(x)
        lam = rho_d * (-rho_d * r0_d).exp()
        total = Decimal(0)
        k = 0
        while x_d > (k + 1) * r0_d:
            total += (-lam * (x_d - (k + 1) * r0_d)) ** k / math.factorial(k)
            k += 1
        f = lam * total
        if Fidelity(fidelity) is Fidelity.PAPER:
            f = (f - lam * (-rho_d * (x_d - r0_d)).exp()) \
                / (1 - (-rho_d * r0_d).exp())
        return float(f)


def gap_cdf_decimal(x: float, rho: float, r0: float) -> float:
    """F(x) = P{X <= x} of the corrected cluster-head gap law.

    The corrected density is the delayed exponential
    f(y) = lam * sum_{k: y > (k+1) r0} (-lam (y - (k+1) r0))^k / k!
    with lam = rho e^{-rho r0}; integrating term by term gives
    F(x) = sum_k (-1)^k (lam (x - (k+1) r0))^{k+1} / (k+1)!.
    The sum is finite; 80-digit decimal arithmetic keeps its cancellation
    far from double precision for the arguments the tests use.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        rho_d, r0_d, x_d = Decimal(rho), Decimal(r0), Decimal(x)
        lam = rho_d * (-rho_d * r0_d).exp()
        total = Decimal(0)
        k = 0
        while x_d > (k + 1) * r0_d:
            term = (lam * (x_d - (k + 1) * r0_d)) ** (k + 1) \
                / math.factorial(k + 1)
            total += -term if k % 2 else term
            k += 1
        return float(total)


def gap_mean_wald_decimal(rho: float, r0: float,
                          fidelity=Fidelity.CORRECTED) -> float:
    """E[X] = r0 + 1/rho + E[N - 1] (1/rho - r0/(e^{rho r0} - 1)).

    X is the cluster's N - 1 intra-cluster gaps, each an exponential(rho)
    conditioned to be at most r0 (mean 1/rho - r0/(e^{rho r0} - 1)), plus
    the inter-cluster gap r0 + exponential(rho).  N is geometric with
    P{N = 1} = e^{-rho r0}, so E[N - 1] = e^{rho r0} - 1 (corrected); the
    paper law conditions on N >= 2, which adds one gap: E[N - 1] =
    e^{rho r0}.  Evaluated in 80-digit decimal arithmetic.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        rho_d, r0_d = Decimal(rho), Decimal(r0)
        growth = (rho_d * r0_d).exp()
        gaps = growth if Fidelity(fidelity) is Fidelity.PAPER else growth - 1
        mean = r0_d + 1 / rho_d + gaps * (1 / rho_d - r0_d / (growth - 1))
        return float(mean)


def _segment_polys(params: ModelParams) -> list:
    """p_0 = 1, p_{k+1}(t) = p_k(1) - rho r0 e^{-rho r0} integral_0^t p_k,
    one coefficient array per r0-segment below the tail switch."""
    c = params.rho_r0 * math.exp(-params.rho_r0)
    polys = [np.ones(1)]
    for _ in range(1, int(_gap_tail_switch(params) / params.r0)):
        p = polys[-1]
        nxt = -c * P.polyint(p)
        nxt[0] = P.polyval(1.0, p)
        polys.append(nxt)
    return polys


def gap_pdf_per_segment(x, params: ModelParams):
    """The gap density with one mask and one ``P.polyval`` call per
    r0-segment of the method of steps; the other branches as in
    ``ch_gap_pdf``."""
    rho, r0 = params.rho, params.r0
    alpha = rho * r0
    lam = rho * math.exp(-alpha)
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    if params.fidelity is Fidelity.CORRECTED:
        corrected = np.zeros(len(flat))
        tail = flat >= _gap_tail_switch(params)
        corrected[tail] = _one_law(_laws_tail, flat[tail], params)
        steps = np.flatnonzero((flat > r0) & ~tail)
        y = flat[steps] / r0
        seg = np.floor(y).astype(np.intp) - 1
        polys = _segment_polys(params)
        for k in np.unique(seg):
            on = seg == k
            corrected[steps[on]] = lam * P.polyval(y[on] - (k + 1), polys[k])
        return float(corrected[0]) if x.ndim == 0 \
            else corrected.reshape(x.shape)
    paper = np.zeros(len(flat))
    first = (flat > r0) & (flat < 2.0 * r0)
    tail = ~first & (flat >= _gap_tail_switch(params))
    paper[first] = rho * (-np.expm1(-rho * (flat[first] - r0))) \
        * math.exp(-alpha) / (-math.expm1(-alpha))
    paper[tail] = np.maximum((_one_law(_laws_tail, flat[tail], params)
                              - rho * np.exp(-rho * flat[tail]))
                             / (1.0 - math.exp(-alpha)), 0.0)
    steps = np.flatnonzero((flat >= 2.0 * r0) & ~tail)
    y = flat[steps] / r0
    seg = np.floor(y).astype(np.intp) - 1
    polys = _segment_polys(params)
    for k in np.unique(seg):
        on = seg == k
        f = P.polyval(y[on] - (k + 1), polys[k])
        paper[steps[on]] = lam * (f - np.exp(-rho * (flat[steps[on]] - r0))) \
            / (-math.expm1(-alpha))
    return float(paper[0]) if x.ndim == 0 else paper.reshape(x.shape)


def _union(intervals) -> list:
    """Union of closed intervals given in any order, nested ones included:
    each start is compared with the running maximum of the ends."""
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return merged


def _subtract(lo: float, hi: float, holes) -> list:
    """[lo, hi] minus the union of ``holes``, as a list of intervals."""
    out = []
    for h_lo, h_hi in _union(h for h in holes if h[1] > lo and h[0] < hi):
        if h_lo > lo:
            out.append((lo, h_lo))
        lo = max(lo, h_hi)
    if lo < hi:
        out.append((lo, hi))
    return out


def timeline_active_intervals(positions, speeds, r0: float, lo: float,
                              hi: float, duration: float) -> list:
    """Intervals of [0, duration] during which some cluster head is inside
    the coverage [lo, hi], for vehicles at ``positions`` at time 0 moving
    at constant ``speeds`` (all positive).

    Vehicle i is a cluster head while no vehicle is within (0, r0] ahead
    of it.  Against vehicle j the gap (x_j - x_i) + (v_j - v_i) t is
    linear in t, so j blocks i on one interval, always or never.  The
    active time of i is its coverage interval minus the union of its
    blocking intervals; the station's is the union over all vehicles.
    Returns the merged [start, end] intervals clipped to [0, duration].
    """
    x = np.asarray(positions, dtype=float)
    v = np.asarray(speeds, dtype=float)
    active = []
    for i in range(len(x)):
        t_in = max((lo - x[i]) / v[i], 0.0)
        t_out = min((hi - x[i]) / v[i], duration)
        if t_in >= t_out:
            continue
        d = np.delete(x, i) - x[i]
        w = np.delete(v, i) - v[i]
        still = w == 0.0
        holes = [(-math.inf, math.inf)] \
            if np.any(still & (d > 0.0) & (d <= r0)) else []
        t0 = -d[~still] / w[~still]             # gap reaches 0
        t1 = (r0 - d[~still]) / w[~still]       # gap reaches r0
        holes += zip(np.minimum(t0, t1).tolist(), np.maximum(t0, t1).tolist())
        active += _subtract(t_in, t_out, holes)
    return _union(active)


def _heterogeneous_state(positions: np.ndarray, speeds: np.ndarray,
                         t: float, r0: float, lo: float, hi: float) -> tuple:
    """Sorted positions at time t, cluster-head flags, and activity."""
    pos = positions + speeds * t
    order = np.argsort(pos, kind="stable")
    pos_sorted = pos[order]
    spd_sorted = speeds[order]
    if len(pos_sorted) == 0:
        return pos_sorted, spd_sorted, np.zeros(0, dtype=bool), False
    gaps_next = np.diff(pos_sorted)
    is_head = np.concatenate((gaps_next > r0, [True]))
    head_pos = pos_sorted[is_head]
    active = bool(np.any((head_pos >= lo) & (head_pos <= hi)))
    return pos_sorted, spd_sorted, is_head, active


def _next_event_time(pos: np.ndarray, spd: np.ndarray, is_head: np.ndarray,
                     t: float, r0: float, lo: float, hi: float) -> float:
    """Earliest future instant where the state description can change:
    an adjacent-pair gap reaches r0 or 0, or a cluster head reaches a
    coverage edge."""
    eps = 1e-9
    best = math.inf
    if len(pos) >= 2:
        gap = np.diff(pos)
        dv = np.diff(spd)
        closing = dv < 0.0
        opening = dv > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            for target, mask in (((r0 - gap), closing | opening),
                                 ((-gap), closing)):
                dt = np.where(mask, target / dv, math.inf)
                dt = dt[np.isfinite(dt) & (dt > eps)]
                if len(dt):
                    best = min(best, float(dt.min()))
    head_pos = pos[is_head]
    head_spd = spd[is_head]
    for edge in (lo, hi):
        with np.errstate(divide="ignore", invalid="ignore"):
            dt = (edge - head_pos) / head_spd
        dt = dt[np.isfinite(dt) & (dt > eps)]
        if len(dt):
            best = min(best, float(dt.min()))
    return t + best


def event_loop_timeline(params: ModelParams, positions, speeds,
                        duration: float, lo: float, hi: float,
                        max_events: int = 100_000_000) -> TimelineReport:
    """The heterogeneous timeline of a base station covering [lo, hi] on
    the road of vehicles at ``positions`` at time 0 with ``speeds``: at
    every event the road is re-sorted by a stable argsort and rescanned,
    the next event is the earliest adjacent-pair gap reaching r0 or 0 or
    head reaching a coverage edge more than 1e-9 s ahead, and the run
    stops early, incomplete, after ``max_events`` events."""
    positions = np.asarray(positions, dtype=float)
    speeds = np.asarray(speeds, dtype=float)
    r0 = params.r0
    t = 0.0
    sleep_time = 0.0
    n_transitions = 0
    n_events = 0
    complete = True
    _, _, is_head, active = _heterogeneous_state(
        positions, speeds, t, r0, lo, hi)
    while t < duration:
        pos, spd, is_head, new_active = _heterogeneous_state(
            positions, speeds, t, r0, lo, hi)
        if new_active != active:
            n_transitions += 1
            active = new_active
        t_next = min(_next_event_time(pos, spd, is_head, t, r0, lo, hi),
                     duration)
        if not active:
            sleep_time += t_next - t
        t = t_next
        n_events += 1
        if n_events > max_events and t < duration:
            complete = False
            break
    return _timeline_report(params, duration, sleep_time, n_transitions,
                            np.empty(0), complete=complete, processed=t)


@dataclass(frozen=True)
class CycleBatch:
    """Renewal cycles, one array per field: the gap x to the next cluster
    head, the speed v, the per-cycle bookkeeping t_off, t_on, e_off and
    p_save of ``simulate._cycle_energy``, and the head-to-tail jump x1,
    the gap of the single-vehicle cycle ``plain_batch`` draws."""

    x: np.ndarray
    v: np.ndarray
    t_off: np.ndarray
    t_on: np.ndarray
    e_off: np.ndarray
    p_save: np.ndarray
    x1: np.ndarray

    def __len__(self) -> int:
        return len(self.x)


def _block_cycles(seed: np.random.SeedSequence, m: int,
                  params: ModelParams) -> np.ndarray:
    """The m paper-law cycles of one block, rows x, v, t_off, t_on, e_off,
    p_save and x1, by plain numpy on the block's PCG64 stream in its
    order: the cluster sizes, every direct gap in one draw, reduced per
    cluster, the big-cluster normals, x1, the speeds."""
    gen = np.random.Generator(np.random.PCG64(seed))
    rho, r0, D = params.rho, params.r0, params.D
    p, q = math.exp(-rho * r0), -math.expm1(-rho * r0)
    n_gaps = np.floor(gen.standard_exponential(m) / -math.log1p(-p)) + 1.0
    span = np.zeros(m)
    direct = n_gaps <= simulate.DIRECT_SUM_LIMIT
    counts = n_gaps[direct].astype(np.int64)
    if len(counts):
        gaps = np.log1p(gen.random(int(counts.sum())) * -q)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        span[direct] = np.add.reduceat(gaps, starts) / -rho
    k = n_gaps[~direct]
    if len(k):
        # a truncated exponential's moments; the normal's rounding is
        # gen.normal(k mean, sqrt(k var))'s, clamped to [0, k r0]
        em1 = math.expm1(rho * r0)
        mean = 1.0 / rho - r0 / em1
        var = 1.0 / rho ** 2 - r0 ** 2 * math.exp(rho * r0) / em1 ** 2
        z = gen.standard_normal(len(k))
        span[~direct] = np.clip(k * mean + np.sqrt(k * var) * z, 0.0, k * r0)
    x1 = gen.standard_exponential(m) * (1.0 / rho) + r0
    v = gen.random(m) * (params.b - params.a) + params.a
    x = span + x1
    t_off = np.maximum((x - D) / v, 0.0)
    t_on = np.minimum(x, D) / v
    e_off = np.where(t_off == 0.0, 0.0, t_off * params.P0 - params.Ec)
    return np.array([x, v, t_off, t_on, e_off, e_off / (t_off + t_on), x1])


def cycle_batch(params: ModelParams, n: int,
                rng: Union[RngSpec, np.random.Generator]) -> CycleBatch:
    """The n paper-law cycles ``sample_cycles`` sums, bit for bit, any
    n >= 0: the same root draw and block streams, each block replayed by
    plain numpy (``_block_cycles``), not by the sampler's kernel."""
    gen = _as_generator(rng)
    root = gen.integers(1 << 64, size=2, dtype=np.uint64)
    block = simulate._CYCLE_BLOCK
    seeds = np.random.SeedSequence(root).spawn(-(-n // block))
    fields = np.empty((7, n))
    for b, seed in enumerate(seeds):
        m = min(block, n - b * block)
        fields[:, b * block:b * block + m] = _block_cycles(seed, m, params)
    return CycleBatch(*fields)


def batch_sums(batch: CycleBatch) -> simulate.CycleSums:
    """The CycleSums ``sample_cycles`` returns for a batch's cycles: each
    block of ``simulate._CYCLE_BLOCK`` summed alone, pooled in order."""
    block, sums = simulate._CYCLE_BLOCK, []
    for lo in range(0, len(batch), block):
        x, t_off, t_on, e_off, p_save = (
            getattr(batch, f)[lo:lo + block]
            for f in ("x", "t_off", "t_on", "e_off", "p_save"))
        asleep = t_off[t_off > 0.0]
        sums.append(simulate.CycleSums(
            simulate._Moments.of(x, np.empty_like(x)),
            simulate._Moments.of(p_save, np.empty_like(p_save)),
            simulate._Moments.of(asleep, asleep),
            tuple(float(np.sum(f)) for f in (e_off, t_off, t_on))))
    return sum(sums[1:], sums[0])


def plain_batch(params: ModelParams, n: int,
                rng: Union[RngSpec, np.random.Generator]) -> CycleBatch:
    """n cycles drawn one law at a time: ``cycle_batch``'s under the paper
    fidelity; under the corrected one each replaced by its single-vehicle
    cycle (gap x1, same speed) where a uniform drawn from rng after the
    root draw falls below exp(-rho r0), the corrected law's mixture by the
    memoryless cluster size."""
    gen = _as_generator(rng)
    batch = cycle_batch(params, n, gen)
    if params.fidelity is Fidelity.PAPER:
        return batch
    single = gen.random(n) < math.exp(-params.rho * params.r0)
    x = np.where(single, batch.x1, batch.x)
    return CycleBatch(x, batch.v, *simulate._cycle_energy(x, batch.v, params),
                      batch.x1)


class SingleVehicle(NamedTuple):
    """Means of the single-vehicle cycle, gap x1 = r0 + exponential(rho)
    and speed V ~ uniform(a, b) independent of it."""

    mean_x: float        # E[x1]
    prob_sleep: float    # P{x1 > D}
    t_off: float         # E[(x1 - D)+] E[1/V]
    t_on: float          # E[min(x1, D)] E[1/V]
    inv_gap: float       # E[1/x1; x1 > D]


def single_vehicle_quad(params: ModelParams) -> SingleVehicle:
    """The single-vehicle cycle's means, each an integral over x1's
    density rho exp(-rho (x - r0)) on x > base (r0 for E[x1], max(D, r0)
    for the others), by panel-doubling Simpson in t = ln(x / base), which
    spreads the near-pole of 1/x at small rho base and the exponential
    decay over 64 panels up to rho (x - base) = 80, each to 1e-16 of the
    whole or 1e-15 of itself; E[1/V] likewise over the speed's density,
    and E[min(x1, D)] as E[x1] - E[(x1 - D)+]."""
    rho, r0, D = params.rho, params.r0, params.D

    def moment(g, base):
        top = math.log1p(80.0 / (rho * base))
        edges = np.linspace(0.0, top, 65)

        def fv(t, _):
            x = base * np.exp(t)
            return g(x, t) * x * rho * np.exp(
                -(rho * (base - r0) + rho * base * np.expm1(t)))

        # a rough pass sets each panel's absolute tolerance: 1e-16 of
        # the whole, where a panel's own relative one may be out of reach
        rough = float(np.sum(integrate_panel_doubling(
            fv, edges[:-1], edges[1:], abs_tol=0.0, rel_tol=1e-6)))
        return float(np.sum(integrate_panel_doubling(
            fv, edges[:-1], edges[1:], abs_tol=1e-16 * rough,
            rel_tol=1e-15)))

    c = max(D, r0)
    mean_x = moment(lambda x, t: x, r0)
    excess = moment(lambda x, t: c * np.expm1(t) + (c - D), c)
    inv_v = float(np.sum(integrate_panel_doubling(
        lambda v, _: 1.0 / v / (params.b - params.a),
        np.array([params.a]), np.array([params.b]), abs_tol=0.0,
        rel_tol=1e-15)))
    return SingleVehicle(
        mean_x=mean_x, prob_sleep=moment(lambda x, t: 1.0, c),
        t_off=excess * inv_v, t_on=(mean_x - excess) * inv_v,
        inv_gap=moment(lambda x, t: 1.0 / x, c))


def _mean_se(values: np.ndarray) -> tuple:
    """Mean and standard error; the deviations are taken from the first
    value (shifted data), so a constant column has a standard error of
    exactly 0, not the rounding of np.mean; below two values there is no
    standard error, None."""
    n = len(values)
    mean = float(np.mean(values))
    if n < 2:
        return mean, None
    return mean, float(np.std(values - values[0], ddof=1) / math.sqrt(n))


def estimate_energy_batch(samples: CycleBatch,
                          params: Optional[ModelParams] = None
                          ) -> EnergyEstimate:
    """The energy estimate by full-array passes over a batch: np.mean,
    np.std and np.sum over every cycle, and over the sleeping ones, as
    drawn; for corrected-fidelity params each figure is 1 - p times that
    plus p = exp(-rho r0) times the single-vehicle cycle's
    (``single_vehicle_quad``), and each standard error 1 - p times that,
    but the sleep time's: a ratio of the mixed t_off and sleep-indicator
    means, its standard error the delta method's over the batch."""
    n = len(samples)
    mean_x, se_x = _mean_se(samples.x)
    sleeping = samples.t_off > 0.0
    prob = float(np.count_nonzero(sleeping)) / n
    prob_se = math.sqrt(prob * (1.0 - prob) / n)
    if np.any(sleeping):
        mean_toff, se_toff = _mean_se(samples.t_off[sleeping])
    else:
        mean_toff = se_toff = None
    mean_psave, se_psave = _mean_se(samples.p_save)
    t_off, t_on = float(np.sum(samples.t_off)), float(np.sum(samples.t_on))
    e_off = float(np.sum(samples.e_off))
    if params is not None and params.fidelity is Fidelity.CORRECTED:
        p = math.exp(-params.rho * params.r0)
        q = 1.0 - p
        one = single_vehicle_quad(params)
        mixed_prob = q * prob + p * one.prob_sleep
        if mixed_prob > 0.0:
            mean_toff = (q * float(np.mean(samples.t_off))
                         + p * one.t_off) / mixed_prob
            if np.count_nonzero(sleeping) >= 2:
                se_toff = q * _mean_se(
                    samples.t_off - mean_toff * sleeping)[1] / mixed_prob
        mean_x, se_x = q * mean_x + p * one.mean_x, q * se_x
        prob, prob_se = mixed_prob, q * prob_se
        mean_psave = q * mean_psave + p * (
            params.P0 * (one.prob_sleep - params.D * one.inv_gap)
            - params.Ec * 0.5 * (params.a + params.b) * one.inv_gap)
        se_psave *= q
        e_off = q * e_off + p * n * (params.P0 * one.t_off
                                     - params.Ec * one.prob_sleep)
        t_off = q * t_off + p * n * one.t_off
        t_on = q * t_on + p * n * one.t_on
    return EnergyEstimate(
        n_cycles=n,
        expected_gap=mean_x, expected_gap_se=se_x,
        prob_sleep=prob, prob_sleep_se=prob_se,
        expected_sleep_time=mean_toff, expected_sleep_time_se=se_toff,
        expected_power_saved=mean_psave, expected_power_saved_se=se_psave,
        time_average_power_saved=e_off / (t_off + t_on),
        duty_cycle=t_off / (t_off + t_on))


def ch_gap_samples(clusters: ClusterSet, window_length: float,
                   r0: float) -> np.ndarray:
    """Gaps between consecutive cluster heads, censored at window edges.

    A cluster whose tail is within r0 of the left edge, or whose head is
    within r0 of the right edge, may be truncated by the window; gaps
    touching such a cluster are discarded.
    """
    if len(clusters.head_positions) < 2:
        return np.empty(0)
    ok = ((clusters.tail_positions >= r0)
          & (clusters.head_positions <= window_length - r0))
    gaps = np.diff(clusters.head_positions)
    return gaps[ok[:-1] & ok[1:]]


def cluster_list(clusters: ClusterSet) -> list:
    """The clusters as (head, tail, member count) tuples."""
    return list(zip(clusters.head_positions.tolist(),
                    clusters.tail_positions.tolist(),
                    clusters.member_counts.tolist()))
