"""Independent reference evaluations used only by the test suite.

- ``compensated_sum``: Neumaier summation with a cancellation index;
- ``ch_gap_pdf_closed_form``: the published double-sum gap density,
  evaluated verbatim and flagged against the program's density;
- ``trunc_exp_pdf`` / ``trunc_exp_nfold_pdf``: the truncated-exponential
  intra-cluster gap and its n-fold convolution, for the span-density
  oracle;
- ``gap_cdf_decimal``: F(x) = P{X <= x} of the corrected gap law by its
  delayed-exponential series in 80-digit decimal arithmetic.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from typing import NamedTuple

import numpy as np

from sleepnet.analytic import ch_gap_pdf
from sleepnet.numerics import _neumaier_step
from sleepnet.params import Fidelity, ModelParams


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
