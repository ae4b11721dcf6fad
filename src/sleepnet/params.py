"""Model parameters and unit handling.

All quantities are SI internally (m, s, W, J).  Speeds cross the API
boundary only with an explicit unit tag ("kmh" or "mps") to avoid the
classic km/h-vs-m/s silent bug.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field, replace

KMH = 1000.0 / 3600.0  # m/s per km/h

_SPEED_RE = re.compile(r"^\s*([0-9.eE+-]+)\s*(kmh|mps)\s*$")


class ParamError(ValueError):
    """A model parameter violates its constraint; names the offending field."""

    def __init__(self, field_name: str, constraint: str):
        self.field_name = field_name
        self.constraint = constraint
        super().__init__(f"parameter '{field_name}': {constraint}")


#: Largest rho*r0 the gap law and the cycle sampler accept.  Beyond it the
#: single-vehicle probability exp(-rho*r0) nears the double underflow
#: (exact 0 past 745) and the gap law's scale exp(rho*r0)/rho the overflow.
RHO_R0_LIMIT = 700.0


def check_density(params: "ModelParams", limit: float = RHO_R0_LIMIT,
                  reason: str = "the single-vehicle probability "
                  "exp(-rho*r0) is too close to double underflow") -> None:
    """Raise ArithmeticError, naming rho, r0, the limit and the reason,
    when rho*r0 exceeds limit."""
    alpha = params.rho * params.r0
    if alpha > limit:
        raise ArithmeticError(
            f"rho*r0 = {alpha!r} (rho={params.rho!r}, r0={params.r0!r}) "
            f"exceeds the limit {limit!r}: {reason}")


def check_sparse(params: "ModelParams") -> None:
    """Raise ArithmeticError, naming rho, r0 and rho*r0, when exp(-rho*r0)
    rounds to 1: the gap law and the sampler take log(1 - exp(-rho*r0))."""
    alpha = params.rho * params.r0
    if math.exp(-alpha) == 1.0:
        raise ArithmeticError(
            f"rho*r0 = {alpha!r} (rho={params.rho!r}, r0={params.r0!r}) "
            f"is too small: exp(-rho*r0) rounds to 1")


class Fidelity(str, enum.Enum):
    """Which law of the cluster-head gap the analysis uses.

    CORRECTED is the gap law of the generative model itself.  PAPER
    conditions the cluster on at least two vehicles: it removes the
    single-vehicle term, weight exp(-rho r0), from that law and
    renormalises.
    """

    PAPER = "paper"
    CORRECTED = "corrected"


def parse_speed(text: str) -> float:
    """Parse a unit-tagged speed string like '40kmh' or '16.7mps' to m/s."""
    m = _SPEED_RE.match(text)
    if not m:
        raise ParamError("speed", f"{text!r} needs an explicit unit suffix "
                                  "'kmh' or 'mps'")
    value = float(m.group(1))
    return value * KMH if m.group(2) == "kmh" else value


@dataclass(frozen=True)
class ModelParams:
    """Scalar inputs of the sleep-scheduling model.

    rho  -- vehicular density [vehicles/m]
    r0   -- vehicle-to-vehicle communication range [m]
    D    -- base-station spacing == coverage width [m]
    a, b -- minimal / maximal vehicle speed [m/s]
    P0   -- power saved while the BS sleeps [W]
    Ec   -- total off+on switching energy [J]
    """

    rho: float
    r0: float
    D: float
    a: float
    b: float
    P0: float
    Ec: float
    fidelity: Fidelity = Fidelity.CORRECTED

    def __post_init__(self):
        object.__setattr__(self, "fidelity", Fidelity(self.fidelity))
        for name in ("rho", "r0", "D", "P0"):
            if (not (getattr(self, name) > 0)
                    or not math.isfinite(getattr(self, name))):
                raise ParamError(name, "must be a finite positive number")
        if not (0 < self.a < self.b) or not math.isfinite(self.b):
            raise ParamError("a", "speeds must satisfy 0 < a < b (m/s)")
        if not (self.Ec >= 0) or not math.isfinite(self.Ec):
            raise ParamError("Ec", "must be finite and >= 0")

    def replace(self, **changes) -> "ModelParams":
        return replace(self, **changes)

    @property
    def rho_r0(self) -> float:
        """Dimensionless density-range product; controls every
        distribution shape."""
        return self.rho * self.r0

    @property
    def mean_speed(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def mean_inv_speed(self) -> float:
        """E[1/V] for the uniform speed law, stable for a ~ b."""
        return math.log1p((self.b - self.a) / self.a) / (self.b - self.a)


#: Canonical configuration used throughout the numerical studies:
#: D = 800 m, P0 = 1 kW, Ec = 10 J, r0 = 200 m, speeds 40-80 km/h,
#: rho = 0.01 vehicles/m.
CANONICAL = ModelParams(rho=0.01, r0=200.0, D=800.0,
                        a=40.0 * KMH, b=80.0 * KMH, P0=1000.0, Ec=10.0)
