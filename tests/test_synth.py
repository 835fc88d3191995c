import math

import numpy as np
import pytest

from lpplscan.errors import DomainError
from lpplscan.model import GrowthSpec, LpplParams, lppl_log_price
from lpplscan.synth import SynthSpec, generate

LPPL = LpplParams(t_c=220.0, m=0.5, omega=6.28, phi=1.0, A=8.0, B=-1.0, C=0.05)


def test_noiseless_lppl_identity():
    spec = SynthSpec(regime=LPPL, t_start=0, t_end=199, step=1.0)
    s = generate(spec).series
    expected = lppl_log_price(LPPL, s.times)
    assert np.max(np.abs(s.log_prices - expected)) < 1e-12


def test_seed_determinism():
    spec = SynthSpec(regime=LPPL, t_start=0, t_end=199, step=1.0, noise_sigma=0.02, seed=3)
    a = generate(spec).series
    b = generate(spec).series
    assert np.array_equal(a.prices, b.prices)
    c = generate(
        SynthSpec(regime=LPPL, t_start=0, t_end=199, step=1.0, noise_sigma=0.02, seed=4)
    ).series
    assert not np.array_equal(a.prices, c.prices)


def test_exponential_slope_regression_oracle():
    rate = 0.003
    spec = SynthSpec(
        regime=GrowthSpec(kind="exponential", rate=rate, p0=50.0),
        t_start=0,
        t_end=999,
        step=1.0,
        noise_sigma=0.01,
        seed=11,
    )
    s = generate(spec).series
    slope, _ = np.polyfit(s.times, s.log_prices, 1)
    n = len(s)
    sxx = np.sum((s.times - s.times.mean()) ** 2)
    resid = s.log_prices - np.polyval(np.polyfit(s.times, s.log_prices, 1), s.times)
    se = math.sqrt(resid @ resid / (n - 2) / sxx)
    assert abs(slope - rate) < 3 * se


def test_noise_std_matches_sigma():
    sigma = 0.05
    spec = SynthSpec(regime=LPPL, t_start=0, t_end=210, step=0.02, noise_sigma=sigma, seed=5)
    s = generate(spec).series
    assert len(s) >= 10**4
    resid = s.log_prices - lppl_log_price(LPPL, s.times)
    assert abs(np.std(resid, ddof=1) - sigma) < 0.05 * sigma


def test_grid_may_not_touch_singularity():
    with pytest.raises(DomainError):
        SynthSpec(regime=LPPL, t_start=0, t_end=220, step=1.0)
    hyp = GrowthSpec(kind="hyperbolic", t_c=50.0, alpha=1.0, scale=1.0)
    with pytest.raises(DomainError):
        SynthSpec(regime=hyp, t_start=0, t_end=50, step=1.0)


@pytest.mark.parametrize(
    "grid",
    [
        dict(t_start=0.0, t_end=math.nan, step=1.0),
        dict(t_start=0.0, t_end=math.inf, step=1.0),
        dict(t_start=-math.inf, t_end=10.0, step=1.0),
        dict(t_start=0.0, t_end=10.0, step=math.nan),
        dict(t_start=0.0, t_end=10.0, step=1.0, noise_sigma=math.nan),
        dict(t_start=0.0, t_end=10.0, step=1.0, noise_sigma=math.inf),
        dict(t_start=0.0, t_end=1e9, step=1e-3),  # 1e12 points
        dict(t_start=0.0, t_end=10.0, step=1e-320),  # point count overflows to inf
        dict(t_start=0.0, t_end=10.0, step=1.0, seed=-1),
    ],
)
def test_spec_rejects_out_of_range_grid_noise_and_seed(grid):
    with pytest.raises(DomainError):
        SynthSpec(regime=GrowthSpec(kind="exponential", rate=0.001), **grid)


def test_growth_truth_holds_every_field():
    spec = SynthSpec(
        regime=GrowthSpec(kind="logistic", rate=0.1, p0=1.0, capacity=10.0),
        t_start=0, t_end=9, step=1.0, seed=2,
    )
    assert generate(spec).truth == {
        "regime": "logistic", "rate": 0.1, "p0": 1.0, "capacity": 10.0, "t_c": 0.0, "alpha": 1.0,
        "scale": 1.0, "noise_sigma": 0.0, "seed": 2, "t_start": 0, "t_end": 9.0, "step": 1.0,
    }


def test_truth_metadata_round_trip():
    spec = SynthSpec(regime=LPPL, t_start=0, t_end=199, step=1.0, noise_sigma=0.01, seed=9)
    truth = generate(spec).truth
    assert truth["regime"] == "lppl"
    assert truth["t_c"] == LPPL.t_c
    assert truth["noise_sigma"] == 0.01
    assert truth["seed"] == 9


def test_generated_series_satisfies_invariants():
    spec = SynthSpec(
        regime=GrowthSpec(kind="logistic", rate=0.1, p0=1.0, capacity=10.0),
        t_start=0,
        t_end=99,
        step=1.0,
        noise_sigma=0.5,
        seed=1,
    )
    s = generate(spec).series
    assert np.all(s.prices > 0)
    assert np.all(np.diff(s.times) > 0)
