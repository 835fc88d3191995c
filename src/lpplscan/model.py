"""Closed-form model evaluation.

Everything here is double-precision arithmetic: the log-periodic power law
and its linear basis, dividend-discount pricing, the doubling cascade with
its finite-time singularity, and the reference growth trajectories
(exponential, logistic, hyperbolic). The one exception is the basis's
float32 cos and sin on request (_basis(trig32=True)), which only the
calibration screen's pre-score asks for.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, slots=True)
class LpplParams:
    """The seven parameters of ln P(t) = A + B(tc-t)^m + C(tc-t)^m cos(w ln(tc-t) - phi)."""

    t_c: float
    m: float
    omega: float
    phi: float
    A: float
    B: float
    C: float

    @property
    def c1(self) -> float:
        return self.C * math.cos(self.phi)

    @property
    def c2(self) -> float:
        return self.C * math.sin(self.phi)

    @classmethod
    def from_linear(cls, t_c, m, omega, A, B, c1, c2) -> "LpplParams":
        """Build from the (C1, C2) linear coefficients; phi normalized to [0, 2pi)."""
        C = math.hypot(c1, c2)
        phi = math.atan2(c2, c1) % TWO_PI if C > 0 else 0.0
        return cls(t_c=t_c, m=m, omega=omega, phi=phi, A=A, B=B, C=C)

    def as_dict(self) -> dict:
        return {**asdict(self), "C1": self.c1, "C2": self.c2}


def lppl_log_price(p: LpplParams, t):
    """Model log-price at time t (scalar or array); defined only for t < t_c."""
    t = np.asarray(t, dtype=float)
    if np.any(t >= p.t_c):
        raise DomainError(f"model undefined at or beyond critical time t_c={p.t_c}")
    dt = p.t_c - t
    pw = dt**p.m
    out = p.A + p.B * pw + p.C * pw * np.cos(p.omega * np.log(dt) - p.phi)
    return float(out) if out.ndim == 0 else out


def lppl_basis(t_c: float, m: float, omega: float, t):
    """Regression basis [1, (tc-t)^m, (tc-t)^m cos(w ln(tc-t)), (tc-t)^m sin(w ln(tc-t))].

    The model log-price is the dot product of this basis with [A, B, C1, C2].
    Returns shape (4,) for scalar t, (n, 4) for array t.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t >= t_c):
        raise DomainError(f"basis undefined at or beyond critical time t_c={t_c}")
    return _basis(t_c - t, m, omega)[1]


def _basis(dt, m, omega, trig32=False):
    """ln(dt) and the basis at dt = tc - t > 0 along a new last axis: the one place its columns are built.

    trig32 takes cos and sin of the angle, reduced to [-pi, pi] in double
    precision, in float32, which numpy runs as SIMD kernels, several times
    faster than its double ones; every other column and ln(dt) stay double.
    That basis is an approximation, only for ranking points that the exact
    basis then scores again.
    """
    ldt = np.log(dt)
    pw = np.exp(m * ldt)
    angle = omega * ldt
    if trig32:
        angle -= TWO_PI * np.rint(angle / TWO_PI)
        angle = angle.astype(np.float32)
    X = np.empty(pw.shape + (4,))
    X[..., 0] = 1.0
    X[..., 1] = pw
    X[..., 2] = pw * np.cos(angle)
    X[..., 3] = pw * np.sin(angle)
    return ldt, X


def scaling_ratio(omega: float) -> float:
    """Geometric factor between successive oscillation periods approaching t_c."""
    if omega <= 0:
        raise DomainError("scaling ratio requires omega > 0")
    return math.exp(TWO_PI / omega)


@dataclass(frozen=True, slots=True)
class DividendModel:
    D: float  # expected annual dividend
    r: float  # total expected return, fraction/yr
    g: float  # dividend growth rate, fraction/yr

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.D, self.r, self.g)):
            raise DomainError("dividend, return and growth must be finite")
        if self.D <= 0:
            raise DomainError("dividend must be positive")


def gordon_shapiro_price(dm: DividendModel) -> float:
    """P = D / (r - g); requires r > g for a finite price."""
    if dm.r <= dm.g:
        raise DomainError(f"no finite price: return {dm.r} must exceed growth {dm.g}")
    return dm.D / (dm.r - dm.g)


def gordon_shapiro_return(D: float, P: float, g: float) -> float:
    """r = D/P + g."""
    if P <= 0:
        raise DomainError("price must be positive")
    return D / P + g


@dataclass(frozen=True, slots=True)
class CascadeState:
    time: float  # years since start
    population: float
    rate: float  # fraction/yr
    doubling_time: float  # ln 2 / rate


def cascade(p0: float, r0: float, n: int) -> list[CascadeState]:
    """Doubling cascade: each time the population doubles, so does its growth rate.

    Row k holds population p0*2^k growing at rate r0*2^k, reached at the sum
    of the preceding doubling times.
    """
    if not (0 < p0 < math.inf and 0 < r0 < math.inf):
        raise DomainError("population and rate must be positive and finite")
    if n < 1:
        raise DomainError("need at least one cascade step")
    rows = []
    t = 0.0
    for k in range(n):
        try:
            rate, population = math.ldexp(r0, k), math.ldexp(p0, k)
        except OverflowError:
            raise DomainError(f"cascade step {k} overflows double precision") from None
        dt = math.log(2.0) / rate
        if not math.isfinite(t + dt):
            raise DomainError(f"cascade step {k} time overflows double precision")
        rows.append(
            CascadeState(time=t, population=population, rate=rate, doubling_time=dt)
        )
        t += dt
    return rows


def singular_time(r0: float) -> float:
    """Finite-time singularity of the cascade: 2 ln 2 / r0 (the doubling times sum to twice the first)."""
    if r0 <= 0:
        raise DomainError("rate must be positive")
    return 2.0 * math.log(2.0) / r0


@dataclass(frozen=True, slots=True)
class GrowthSpec:
    """One of the reference trajectories: exponential, logistic, or hyperbolic."""

    kind: str  # "exponential" | "logistic" | "hyperbolic"
    rate: float = 0.0
    p0: float = 1.0
    capacity: float = 0.0  # logistic carrying capacity K
    t_c: float = 0.0  # hyperbolic singularity
    alpha: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind == "exponential":
            if not math.isfinite(self.rate):
                raise DomainError("exponential rate must be finite")
            if self.p0 <= 0:
                raise DomainError("initial value must be positive")
        elif self.kind == "logistic":
            if not 0 < self.p0 < self.capacity:
                raise DomainError("logistic requires 0 < p0 < capacity")
        elif self.kind == "hyperbolic":
            if self.alpha <= 0 or self.scale <= 0:
                raise DomainError("hyperbolic requires alpha > 0 and scale > 0")
        else:
            raise DomainError(f"unknown growth kind {self.kind!r}")


def growth_value(spec: GrowthSpec, t):
    """Evaluate the trajectory at t (scalar or array)."""
    t = np.asarray(t, dtype=float)
    if spec.kind == "exponential":
        out = spec.p0 * np.exp(spec.rate * t)
    elif spec.kind == "logistic":
        K = spec.capacity
        out = K / (1.0 + ((K - spec.p0) / spec.p0) * np.exp(-spec.rate * t))
    else:  # hyperbolic
        if np.any(t >= spec.t_c):
            raise DomainError(f"hyperbolic growth undefined at or beyond t_c={spec.t_c}")
        out = spec.scale / (spec.t_c - t) ** spec.alpha
    return float(out) if out.ndim == 0 else out
