"""Seeded synthetic price series for tests and demos.

Noise is i.i.d. Gaussian on log-price; prices come from exponentiating, so
positivity is automatic. The true generating parameters ride along with the
series so recovery tests need no side channel.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import DomainError
from .model import GrowthSpec, LpplParams, growth_value, lppl_log_price
from .timeseries import PriceSeries

# most grid points one spec may ask for, so a typo'd grid cannot exhaust memory
_MAX_POINTS = 10_000_000


@dataclass(frozen=True, slots=True)
class SynthSpec:
    regime: GrowthSpec | LpplParams
    t_start: float
    t_end: float
    step: float
    noise_sigma: float = 0.0
    seed: int = 0
    label: str = "synthetic"

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t_start, self.t_end, self.step, self.noise_sigma))):
            raise DomainError("grid and noise sigma must be finite")
        if self.step <= 0:
            raise DomainError("grid step must be positive")
        if self.t_end <= self.t_start:
            raise DomainError("grid end must exceed grid start")
        if not (self.t_end - self.t_start) / self.step < _MAX_POINTS:
            raise DomainError(f"grid holds more than {_MAX_POINTS} points")
        if self.noise_sigma < 0:
            raise DomainError("noise sigma must be nonnegative")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        t_c = getattr(self.regime, "t_c", None)
        if isinstance(self.regime, LpplParams) or (
            isinstance(self.regime, GrowthSpec) and self.regime.kind == "hyperbolic"
        ):
            if self.t_end >= t_c:
                raise DomainError(
                    f"grid end {self.t_end} touches the critical time {t_c}"
                )


@dataclass(frozen=True, slots=True)
class SynthResult:
    series: PriceSeries
    truth: dict = field(default_factory=dict)


def generate(spec: SynthSpec) -> SynthResult:
    """Prices = exp(model log-value + Gaussian noise); deterministic per seed."""
    n = int(np.floor((spec.t_end - spec.t_start) / spec.step)) + 1
    times = spec.t_start + spec.step * np.arange(n)
    if isinstance(spec.regime, LpplParams):
        log_values = lppl_log_price(spec.regime, times)
        truth = {"regime": "lppl", **spec.regime.as_dict()}
    else:
        values = growth_value(spec.regime, times)
        if np.any(values <= 0):
            raise DomainError("growth trajectory must stay positive to be a price")
        log_values = np.log(values)
        truth = asdict(spec.regime)
        truth["regime"] = truth.pop("kind")
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        log_values = log_values + rng.normal(0.0, spec.noise_sigma, size=n)
    # the spec's grid, noise and seed; t_end is the grid's last time
    truth.update({f.name: getattr(spec, f.name) for f in fields(SynthSpec) if f.name not in ("regime", "label")})
    truth["t_end"] = float(times[-1])
    series = PriceSeries(times, np.exp(log_values), label=spec.label)
    return SynthResult(series=series, truth=truth)
