import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lpplscan.errors import DomainError
from lpplscan.model import (
    CascadeState,
    DividendModel,
    GrowthSpec,
    LpplParams,
    cascade,
    gordon_shapiro_price,
    gordon_shapiro_return,
    growth_value,
    lppl_basis,
    lppl_log_price,
    scaling_ratio,
    singular_time,
)


def make_params(**kw):
    defaults = dict(t_c=100.0, m=0.5, omega=6.0, phi=0.0, A=10.0, B=-1.0, C=0.0)
    defaults.update(kw)
    return LpplParams(**defaults)


class TestLpplLogPrice:
    def test_constant_when_b_and_c_zero(self):
        p = make_params(B=0.0, C=0.0)
        for t in [0.0, 50.0, 99.9]:
            assert lppl_log_price(p, t) == 10.0

    def test_pure_power_law(self):
        # A=10, B=-1, m=0.5, dt=4 -> 10 - 2
        p = make_params()
        assert lppl_log_price(p, 96.0) == pytest.approx(8.0, abs=1e-12)

    def test_oscillating_term_at_log_one(self):
        # dt = e so ln(dt) = 1; independent substitution with math functions
        p = make_params(C=0.1, omega=6.0, phi=0.0)
        t = 100.0 - math.e
        expected = 10.0 - math.sqrt(math.e) + 0.1 * math.sqrt(math.e) * math.cos(6.0)
        assert lppl_log_price(p, t) == pytest.approx(expected, abs=1e-12)

    def test_domain_error_at_and_beyond_tc(self):
        p = make_params()
        for t in [100.0, 101.0]:
            with pytest.raises(DomainError, match="100"):
                lppl_log_price(p, t)

    def test_vectorized_matches_scalar(self):
        p = make_params(C=0.2, omega=7.3, phi=1.1)
        ts = np.linspace(0, 99, 57)
        vec = lppl_log_price(p, ts)
        assert vec == pytest.approx([lppl_log_price(p, t) for t in ts])

    @given(
        st.floats(0.05, 0.95),
        st.floats(2.0, 15.0),
        st.floats(0.0, 2 * math.pi),
        st.floats(-2.0, 2.0),
        st.floats(0.1, 90.0),
    )
    def test_c_phi_sign_flip_invariance(self, m, omega, phi, C, dt):
        base = make_params(m=m, omega=omega, phi=phi, C=C)
        flipped = make_params(m=m, omega=omega, phi=phi + math.pi, C=-C)
        t = 100.0 - dt
        assert lppl_log_price(base, t) == pytest.approx(
            lppl_log_price(flipped, t), abs=1e-12
        )

    @given(st.floats(0.05, 0.95), st.floats(2.0, 15.0), st.floats(0.0, 6.0), st.floats(0.1, 90.0))
    def test_phase_period_invariance(self, m, omega, phi, dt):
        base = make_params(m=m, omega=omega, phi=phi, C=0.5)
        shifted = make_params(m=m, omega=omega, phi=phi + 2 * math.pi, C=0.5)
        t = 100.0 - dt
        assert lppl_log_price(base, t) == pytest.approx(
            lppl_log_price(shifted, t), abs=1e-12
        )

    def test_strictly_increasing_with_diverging_slope(self):
        # B<0, C=0, 0<m<1: increasing toward t_c, slope blows up near t_c
        p = make_params(m=0.4)
        ts = np.linspace(0, 99.999, 500)
        vals = lppl_log_price(p, ts)
        assert np.all(np.diff(vals) > 0)
        h = 1e-7
        slopes = []
        for dt in [1.0, 1e-2, 1e-4, 1e-6]:
            t = 100.0 - dt
            slopes.append((lppl_log_price(p, t) - lppl_log_price(p, t - h)) / h)
        assert slopes == sorted(slopes)
        assert slopes[-1] > 1e3 * slopes[0]


class TestBasis:
    def test_unit_distance_m_zero(self):
        assert lppl_basis(1.0, 0.0, 11.7, 0.0) == pytest.approx([1, 1, 1, 0])

    def test_analytic_point(self):
        b = lppl_basis(math.e, 1.0, 2 * math.pi, 0.0)
        assert b == pytest.approx([1.0, math.e, math.e, 0.0], abs=1e-12)

    def test_dot_product_matches_direct_evaluation(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            t_c = rng.uniform(50, 150)
            m = rng.uniform(0.05, 0.95)
            omega = rng.uniform(2, 15)
            A, B = rng.uniform(-5, 5, 2)
            C = rng.uniform(-1, 1)
            phi = rng.uniform(0, 2 * math.pi)
            t = t_c - rng.uniform(0.01, 40)
            p = LpplParams(t_c=t_c, m=m, omega=omega, phi=phi, A=A, B=B, C=C)
            coef = np.array([A, B, p.c1, p.c2])
            assert abs(lppl_basis(t_c, m, omega, t) @ coef - lppl_log_price(p, t)) < 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            lppl_basis(10.0, 0.5, 6.0, 10.0)


class TestLinearReparameterization:
    @given(st.floats(1e-6, 3.0), st.floats(0.0, 2 * math.pi - 1e-9))
    def test_round_trip(self, C, phi):
        p = make_params(C=C, phi=phi)
        q = LpplParams.from_linear(p.t_c, p.m, p.omega, p.A, p.B, p.c1, p.c2)
        assert q.C == pytest.approx(C, rel=1e-12, abs=1e-12)
        # phases compared on the circle
        diff = (q.phi - phi) % (2 * math.pi)
        assert min(diff, 2 * math.pi - diff) < 1e-9

    def test_phi_normalized(self):
        q = LpplParams.from_linear(100, 0.5, 6, 0, 0, -1.0, -1.0)
        assert 0 <= q.phi < 2 * math.pi


class TestScalingRatio:
    def test_two_pi_gives_e(self):
        assert scaling_ratio(2 * math.pi) == pytest.approx(math.e, abs=1e-12)

    def test_preferred_ratio_range(self):
        # the ratio-3 and ratio-4 frequencies by inverting lambda = exp(2*pi/w)
        assert scaling_ratio(2 * math.pi / math.log(3)) == pytest.approx(3.0)
        assert scaling_ratio(2 * math.pi / math.log(4)) == pytest.approx(4.0)
        assert 2 * math.pi / math.log(3) == pytest.approx(5.7192, abs=1e-4)
        assert 2 * math.pi / math.log(4) == pytest.approx(4.5324, abs=1e-4)

    def test_rejects_nonpositive(self):
        for w in [0.0, -1.0]:
            with pytest.raises(DomainError):
                scaling_ratio(w)

    def test_finite_and_above_one(self):
        for w in [0.5, 2, 15, 100]:
            lam = scaling_ratio(w)
            assert math.isfinite(lam) and lam > 1


class TestGordonShapiro:
    def test_reference_prices(self):
        assert gordon_shapiro_price(DividendModel(100, 0.08, 0.04)) == pytest.approx(2500)
        assert gordon_shapiro_price(DividendModel(100, 0.06, 0.04)) == pytest.approx(5000)
        assert gordon_shapiro_price(DividendModel(100, 0.10, 0.0)) == pytest.approx(1000)

    def test_no_finite_price(self):
        with pytest.raises(DomainError, match="no finite price"):
            gordon_shapiro_price(DividendModel(100, 0.04, 0.04))

    @pytest.mark.parametrize("args", [(math.nan, 0.05, 0.04), (math.inf, 0.05, 0.04), (100, math.nan, 0.04),
                                      (100, math.inf, 0.04), (100, 0.05, math.nan), (100, 0.05, -math.inf)])
    def test_non_finite_input(self, args):
        with pytest.raises(DomainError, match="must be finite"):
            DividendModel(*args)

    def test_return_formula(self):
        assert gordon_shapiro_return(100, 2500, 0.04) == pytest.approx(0.08)
        assert gordon_shapiro_return(100, 5000, 0.04) == pytest.approx(0.06)
        assert gordon_shapiro_return(1, 100, 0.0) == pytest.approx(0.01)
        with pytest.raises(DomainError):
            gordon_shapiro_return(100, 0.0, 0.04)

    @given(st.floats(1, 1000), st.floats(0.01, 0.2), st.floats(-0.1, 0.1))
    def test_price_return_round_trip(self, D, spread, g):
        r = g + spread
        P = gordon_shapiro_price(DividendModel(D, r, g))
        assert gordon_shapiro_return(D, P, g) == pytest.approx(r, abs=1e-12)


class TestCascade:
    def test_reference_table(self):
        rows = cascade(2.0, 0.02, 3)
        assert [r.doubling_time for r in rows] == pytest.approx(
            [34.657, 17.329, 8.664], abs=1e-3
        )
        assert [r.population for r in rows] == [2, 4, 8]
        assert [r.rate for r in rows] == pytest.approx([0.02, 0.04, 0.08])

    def test_single_row_starts_at_zero(self):
        rows = cascade(2.0, 0.02, 1)
        assert len(rows) == 1
        assert rows[0].time == 0.0
        assert isinstance(rows[0], CascadeState)

    def test_cumulative_time_closed_form(self):
        # time of row k is T0 * 2 * (1 - 2^-k), the partial Zeno sum
        rows = cascade(2.0, 0.02, 15)
        T0 = math.log(2) / 0.02
        for k, row in enumerate(rows):
            assert row.time == pytest.approx(2 * T0 * (1 - 2.0**-k), rel=1e-12)

    def test_doubling_times_halve(self):
        rows = cascade(1.0, 0.05, 10)
        for a, b in zip(rows, rows[1:]):
            assert b.doubling_time == pytest.approx(a.doubling_time / 2, rel=1e-12)

    def test_invalid_inputs(self):
        for args in [(-1, 0.02, 3), (1, 0.0, 3), (1, 0.02, 0)]:
            with pytest.raises(DomainError):
                cascade(*args)


class TestSingularTime:
    def test_reference_value(self):
        assert singular_time(0.02) == pytest.approx(69.31, abs=0.05)

    def test_analytic(self):
        assert singular_time(math.log(2)) == pytest.approx(2.0, abs=1e-12)

    def test_cascade_converges_to_singularity(self):
        rows = cascade(2.0, 0.02, 40)
        total = rows[-1].time + rows[-1].doubling_time
        assert abs(total - singular_time(0.02)) < 1e-6

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            singular_time(0.0)


class TestGrowth:
    def test_exponential_zero_rate(self):
        spec = GrowthSpec(kind="exponential", rate=0.0, p0=7.0)
        for t in [0, 10, 1e6]:
            assert growth_value(spec, t) == 7.0

    def test_logistic_limit_is_capacity(self):
        spec = GrowthSpec(kind="logistic", rate=0.5, p0=1.0, capacity=50.0)
        assert abs(growth_value(spec, 100.0) - 50.0) < 1e-9 * 50.0

    def test_logistic_bounded_exponential_unbounded(self):
        logi = GrowthSpec(kind="logistic", rate=0.3, p0=1.0, capacity=20.0)
        expo = GrowthSpec(kind="exponential", rate=0.3, p0=1.0)
        ts = np.linspace(0, 200, 400)
        assert np.all(growth_value(logi, ts) <= 20.0 + 1e-9)
        assert growth_value(expo, 200.0) > 1e20

    def test_hyperbolic_diverges_at_tc(self):
        spec = GrowthSpec(kind="hyperbolic", t_c=100.0, alpha=1.0, scale=1.0)
        for bound in [1e3, 1e6, 1e9]:
            assert growth_value(spec, 100.0 - 1.0 / (2 * bound)) > bound
        with pytest.raises(DomainError):
            growth_value(spec, 100.0)

    def test_hyperbolic_crosses_matched_exponential_once(self):
        # exponential matched to the hyperbola at t=0 and t=50: the hyperbola
        # (log-convex) runs below in between and overtakes for good at 50
        hyp = GrowthSpec(kind="hyperbolic", t_c=100.0, alpha=1.0, scale=100.0)
        v0, v50 = growth_value(hyp, 0.0), growth_value(hyp, 50.0)
        rate = math.log(v50 / v0) / 50.0
        expo = GrowthSpec(kind="exponential", rate=rate, p0=v0)
        ts = np.linspace(0.5, 99.0, 5000)
        diff = growth_value(hyp, ts) - growth_value(expo, ts)
        signs = np.sign(diff)
        crossings = np.nonzero(np.diff(signs))[0]
        assert len(crossings) == 1
        assert signs[0] < 0 and signs[-1] > 0
        # bisect the crossing; it must sit at the second matching point
        lo, hi = ts[crossings[0]], ts[crossings[0] + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if growth_value(hyp, mid) - growth_value(expo, mid) < 0:
                lo = mid
            else:
                hi = mid
        assert lo == pytest.approx(50.0, abs=1e-6)

    def test_invalid_specs(self):
        with pytest.raises(DomainError):
            GrowthSpec(kind="logistic", rate=0.1, p0=5.0, capacity=2.0)
        with pytest.raises(DomainError):
            GrowthSpec(kind="hyperbolic", t_c=10.0, alpha=-1.0)
        with pytest.raises(DomainError):
            GrowthSpec(kind="sinusoidal")
