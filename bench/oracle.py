"""Independent reference values for the cluster-head gap law.

Both routes use only the standard library's `decimal` at 80 digits, so
they share no code and no floating-point rounding with `sleepnet`.

* E[X] = e^{rho r0} / rho for the corrected fidelity (Wald's identity for
  a geometric number of intra-cluster gaps).
* F(D) = P{X <= D} by the delayed-exponential series of the corrected
  gap density f(x) = lam * sum_k (-lam (x - (k+1) r0))^k / k!, with
  lam = rho e^{-rho r0}; integrated term by term,
  F(D) = sum_{k: D > (k+1) r0} lam (-lam)^k (D - (k+1) r0)^{k+1} / (k+1)!.
  The paper fidelity removes the single-vehicle component
  e^{-rho r0} * rho e^{-rho (x - r0)} and renormalises.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

PRECISION = 80


def _dec(value: float) -> Decimal:
    # Decimal(float) is exact, so the oracle sees the same binary inputs
    # as the program.
    return Decimal(value)


def gap_cdf(rho: float, r0: float, D: float,
            fidelity: str = "corrected") -> float:
    """F(D) = P{X <= D} for the cluster-head gap X."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        rho_d, r0_d, d_d = _dec(rho), _dec(r0), _dec(D)
        single = (-rho_d * r0_d).exp()
        lam = rho_d * single
        total = Decimal(0)
        term_k = 0
        fact = Decimal(1)
        while d_d > (term_k + 1) * r0_d:
            fact *= term_k + 1
            span = d_d - (term_k + 1) * r0_d
            total += lam * (-lam) ** term_k * span ** (term_k + 1) / fact
            term_k += 1
        if fidelity == "corrected":
            return float(total)
        if fidelity != "paper":
            raise ValueError(f"unknown fidelity {fidelity!r}")
        if d_d <= r0_d:
            return 0.0
        inter = 1 - (-rho_d * (d_d - r0_d)).exp()
        return float((total - single * inter) / (1 - single))


def expected_gap_corrected(rho: float, r0: float) -> float:
    """E[X] = e^{rho r0} / rho (corrected fidelity only)."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        rho_d = _dec(rho)
        return float((rho_d * _dec(r0)).exp() / rho_d)
