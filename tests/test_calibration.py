import copy
import json
import math
import operator
import os
import pickle
import subprocess
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpplscan import calibration
from lpplscan.calibration import (
    FilterConfig,
    FitResult,
    SearchConfig,
    _latin_hypercube,
    _linear_fit,
    _fit_windows,
    _polish,
    _simplex,
    fit_window,
    oscillation_count,
    qualify,
    sign_of,
    solve_linear,
)
from lpplscan.errors import DomainError, FitError, WindowError
from lpplscan.model import LpplParams, lppl_basis, lppl_log_price
from lpplscan.synth import SynthSpec, generate
from lpplscan.timeseries import FitWindow, PriceSeries, slice_window

TRUE = LpplParams(t_c=220.0, m=0.5, omega=6.28, phi=1.0, A=8.0, B=-1.0, C=0.05)

FAST = SearchConfig(n_starts=8, max_iter=300)


def lppl_series(noise=0.0, seed=0, n=200, params=TRUE):
    spec = SynthSpec(
        regime=params, t_start=0, t_end=n - 1, step=1.0, noise_sigma=noise, seed=seed
    )
    return generate(spec).series


def full_window(series):
    return slice_window(series, series.t_start, series.t_end)


def make_fit(params, t1=0.0, t2=100.0, rmse=0.001, n=101):
    window = FitWindow(t1=t1, t2=t2, start=0, stop=n)
    return FitResult(
        params=params,
        window=window,
        sse=rmse * rmse * n,
        rmse=rmse,
        n_points=n,
        qualified=False,
        sign=sign_of(params.B),
    )


class TestSolveLinear:
    def test_constant_series_exact_fit(self):
        times = np.arange(40.0)
        s = PriceSeries(times, np.full(40, 50.0))
        w = full_window(s)
        A, B, c1, c2, sse = solve_linear(s, w, 60.0, 0.5, 6.0)
        assert A == pytest.approx(math.log(50.0), abs=1e-9)
        assert (B, c1, c2) == pytest.approx((0, 0, 0), abs=1e-9)
        assert sse < 1e-16 * 40

    def test_noiseless_recovery(self):
        s = lppl_series()
        w = full_window(s)
        A, B, c1, c2, sse = solve_linear(s, w, TRUE.t_c, TRUE.m, TRUE.omega)
        assert A == pytest.approx(TRUE.A, abs=1e-8)
        assert B == pytest.approx(TRUE.B, abs=1e-8)
        assert c1 == pytest.approx(TRUE.c1, abs=1e-8)
        assert c2 == pytest.approx(TRUE.c2, abs=1e-8)
        assert sse < 1e-16 * len(s)

    def test_beats_random_grid(self):
        rng = np.random.default_rng(42)
        times = np.sort(rng.uniform(0, 100, 40))
        times += np.arange(40) * 1e-6  # ensure strictly increasing
        s = PriceSeries(times, np.exp(rng.normal(3.0, 0.5, 40)))
        w = full_window(s)
        t_c, m, omega = 120.0, 0.4, 7.0
        *_, sse = solve_linear(s, w, t_c, m, omega)
        X = lppl_basis(t_c, m, omega, w.times(s))
        y = w.log_prices(s)
        candidates = rng.uniform(-5, 5, size=(10_000, 4))
        resid = y[None, :] - candidates @ X.T
        grid_sse = np.einsum("ij,ij->i", resid, resid)
        assert sse <= grid_sse.min() + 1e-12

    def test_tc_must_exceed_window_end(self):
        s = lppl_series()
        w = full_window(s)
        with pytest.raises(DomainError):
            solve_linear(s, w, w.t2, 0.5, 6.0)

    @pytest.mark.parametrize("start, stop", [(200, 260), (60, 500), (0, 30)])
    def test_window_outside_the_series_is_window_error(self, start, stop):
        s = lppl_series(n=120)
        with pytest.raises(WindowError, match="not inside"):
            solve_linear(s, FitWindow(60.0, 119.0, start, stop), 130.0, 0.5, 6.0)

    def test_window_below_the_parameter_count_is_window_error(self):
        # 3 points leave the 4 linear coefficients underdetermined: the solve would report sse ~1e-26
        s = lppl_series(n=120)
        with pytest.raises(WindowError, match="fewer than the 7 LPPL parameters"):
            solve_linear(s, FitWindow(0.0, 2.0, 0, 3), 125.0, 0.5, 7.0)


class TestLinearFit:
    # the whole search box of the default filters, on a random walk with a
    # cycle; the explicit examples are its worst-conditioned corner, where
    # cond(X^T X) is about 1.8e8 at n=30
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([30, 200, 750]),
        u=st.floats(1e-6, 1.0),
        m=st.floats(0.01, 0.99),
        omega=st.floats(2.0, 15.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=30, u=1.0, m=0.01, omega=2.0, seed=0)
    @example(n=200, u=1.0, m=0.01, omega=2.0, seed=0)
    @example(n=750, u=1.0, m=0.01, omega=2.0, seed=0)
    def test_matches_lstsq_over_the_search_box(self, n, u, m, omega, seed):
        rng = np.random.default_rng(seed)
        tt = np.arange(float(n))
        y = 4.0 + 0.3 * np.sin(tt / 7.0) + 0.02 * np.cumsum(rng.normal(size=n))
        t2, tc_span = tt[-1], 0.5 * (n - 1)
        beta, sse = (v[0] for v in _linear_fit((u * tc_span + (t2 - tt))[None], y, m, omega)[:2])
        X = lppl_basis(t2 + u * tc_span, m, omega, tt)
        ref, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ ref
        assert sse == pytest.approx(float(resid @ resid), rel=1e-10)
        # normal equations lose up to cond(X^T X) * eps * |y|, about 1.6e-7 here
        np.testing.assert_allclose(X @ beta, X @ ref, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("n", [30, 200, 750])
    def test_batched_rows_match_single_calls(self, n):
        rng = np.random.default_rng(n)
        tt = np.arange(float(n))
        y = 4.0 + 0.3 * np.sin(tt / 7.0) + 0.02 * np.cumsum(rng.normal(size=n))
        rev, tc_span = tt[-1] - tt, 0.5 * (n - 1)
        filters = FilterConfig()
        lo = np.array([1e-6, filters.m_range[0], filters.omega_range[0]])
        hi = np.array([1.0, filters.m_range[1], filters.omega_range[1]])
        z = lo + _latin_hypercube(37, 3, n) * (hi - lo)
        z[3, 1] = 0.0  # m = 0: the constant and power-law columns coincide, X^T X is singular
        z[6, 2] = np.inf  # a non-finite basis, in the singular row's batch
        singles = [[v[0] for v in _linear_fit((u * tc_span + rev)[None], y, m, omega)[:2]] for u, m, omega in z]
        assert math.isfinite(singles[3][1]) and singles[6][1] == math.inf
        # the one-row call keeps plain 2-D BLAS arithmetic: normal equations and r @ r
        for (u, m, omega), (b1, s1) in zip(z, singles):
            if m == 0.0 or omega == np.inf:
                continue
            ldt = np.log(u * tc_span + rev)
            pw = np.exp(m * ldt)
            X = np.column_stack([np.ones(n), pw, pw * np.cos(omega * ldt), pw * np.sin(omega * ldt)])
            ref = np.linalg.solve(X.T @ X, X.T @ y)
            resid = y - X @ ref
            assert np.array_equal(b1, ref) and s1 == float(resid @ resid)
        # batches of 10 leave a last batch of 7; the first holds the singular and the overflowed row
        for start in range(0, len(z), 10):
            rows = z[start:start + 10]
            beta, sse, _, X, _ = _linear_fit(rows[:, :1] * tc_span + rev, y, rows[:, 1:2], rows[:, 2:3])
            assert beta.shape == (len(rows), 4) and sse.shape == (len(rows),)
            for k, (b1, s1) in enumerate(singles[start:start + 10]):
                assert np.array_equal(beta[k], b1, equal_nan=True)
                assert sse[k] == s1
            if start == 0:
                # only the singular row is re-solved, by minimum-norm least squares on its own basis
                assert np.array_equal(beta[3], np.linalg.lstsq(X[3], y, rcond=None)[0])
                assert np.isnan(beta[6]).all() and sse[6] == math.inf

    def test_basis_is_lppl_basis(self):
        # the kernel and lppl_basis build the basis in one place: the same bits
        tt = np.arange(300.0)
        y = np.zeros_like(tt)
        for t_c, m, omega in [(300.0, 0.5, 6.28), (310.5, 0.01, 2.0), (449.0, 0.99, 15.0), (300.25, 0.37, 9.1)]:
            X = _linear_fit((t_c - tt)[None], y, m, omega)[3][0]
            assert np.array_equal(X, lppl_basis(t_c, m, omega, tt))
            assert np.array_equal(X[17], lppl_basis(t_c, m, omega, tt[17]))

    @pytest.mark.parametrize("n", [30, 200, 750])
    def test_rows_with_their_own_y_match_single_calls(self, n):
        # each row on its own window: its own log-prices, time origin and t_c span
        rng = np.random.default_rng(n + 1)
        P = 23
        tt = np.arange(float(n))
        y = 4.0 + 0.3 * np.sin(tt / 7.0) + 0.02 * np.cumsum(rng.normal(size=(P, n)), axis=1)
        rev = tt[-1] - tt + rng.uniform(0.0, 5.0, size=(P, 1))
        tc_span = rng.uniform(0.2, 0.8, size=(P, 1)) * (n - 1)
        z = np.column_stack([rng.uniform(1e-6, 1.0, P), rng.uniform(0.01, 0.99, P), rng.uniform(2.0, 15.0, P)])
        z[5, 1] = 0.0  # m = 0: a singular row, which the kernel re-solves on its own
        dt = z[:, :1] * tc_span + rev
        singles = [[v[0] for v in _linear_fit(d[None], yi, m, omega)[:2]] for d, yi, (_, m, omega) in zip(dt, y, z)]
        assert math.isfinite(singles[5][1])
        for rows in (slice(0, P), slice(6, P)):  # with and without the singular row
            beta, sse = _linear_fit(dt[rows], y[rows], z[rows, 1:2], z[rows, 2:3])[:2]
            assert beta.shape == (len(z[rows]), 4) and sse.shape == (len(z[rows]),)
            for k, (b1, s1) in enumerate(singles[rows]):
                assert np.array_equal(beta[k], b1) and sse[k] == s1


class TestLatinHypercube:
    @pytest.mark.parametrize("n", [1, 6, 20, 37])
    def test_matches_scipy(self, n):
        from scipy.stats import qmc

        for seed in [*range(50), 2**31 - 1, 2**32 - 1, 2**63, 12345678901234567890]:
            expected = qmc.LatinHypercube(d=3, seed=seed).random(n)
            assert np.array_equal(_latin_hypercube(n, 3, seed), expected), seed

    def test_import_leaves_scipy_stats_out(self):
        # no scipy module at all, after the import and after a seeded fit
        code = (
            "import sys, lpplscan as L\n"
            "loaded = lambda: any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
            "print(loaded())\n"
            "p = L.LpplParams(t_c=220.0, m=0.5, omega=6.28, phi=1.0, A=8.0, B=-1.0, C=0.05)\n"
            "s = L.generate(L.SynthSpec(regime=p, t_start=0, t_end=99, step=1.0, noise_sigma=0.01, seed=0)).series\n"
            "L.fit_window(s, L.slice_window(s, 0, 99), L.SearchConfig(n_starts=2, max_iter=50), seed=1)\n"
            "print(loaded())\n"
        )
        path = os.pathsep.join(sys.path)
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.split() == ["False", "False"]


def drive(descent, objective):
    """Run an ask/tell descent one point at a time: its result and its number of evaluations."""
    nfev = 0
    try:
        point = next(descent)
        while True:
            nfev += 1
            point = descent.send(objective(np.array(point)))
    except StopIteration as stop:
        return stop.value, nfev


def lppl_objective(n=80, seed=0):
    """fit_window's objective on a noisy LPPL window: scaled sse of a point (u, m, omega)."""
    s = lppl_series(noise=0.01, seed=seed, n=n)
    w = full_window(s)
    y = w.log_prices(s)
    rev, tc_span, scale = w.t2 - w.times(s), 0.5 * w.length, float(np.var(y)) * n
    return lambda z: _linear_fit(z[..., :1] * tc_span + rev, y, z[..., 1:2], z[..., 2:3])[1] / scale


class TestSimplex:
    # fit_window's default box, with u reaching 0, where the lppl objective is inf
    LO = np.array([0.0, 0.01, 2.0])
    HI = np.array([1.0, 0.99, 15.0])

    @staticmethod
    def objectives():
        lppl = lppl_objective()
        return {
            "lppl": lambda z: float(lppl(z[None, :])[0]),
            "bowl": lambda z: float(np.sum((z - [0.3, 0.5, 9.0]) ** 2 * [4.0, 1.0, 0.01])),
            # the minimum lies outside the box, so the descent ends on its faces
            "outside": lambda z: float(np.sum((z - [1.5, -0.2, 1.0]) ** 2)),
            # inf over part of the box, as the kernel returns for a failed solve
            "partly_inf": lambda z: math.inf if z[0] + z[1] > 1.0 else float(np.sum((z - [0.9, 0.6, 6.0]) ** 2)),
            # NaN over part of the box: the vertex order falls back to np.argsort, which sorts NaN last
            "partly_nan": lambda z: math.nan if z[0] + z[1] > 1.0 else float(np.sum((z - [0.9, 0.6, 6.0]) ** 2)),
            # exactly tied vertex values: a flat box and a staircase
            "flat": lambda z: 1.0,
            "stairs": lambda z: float(np.floor(4 * z[0]) + np.floor(2 * z[1]) + np.floor(z[2] / 4)),
        }

    @pytest.mark.parametrize("max_iter", [1, 7, 400])
    @pytest.mark.parametrize(
        "start",
        [
            [0.5, 0.5, 8.0],  # inside
            [1.0, 0.99, 15.0],  # on the upper bounds: the initial steps are reflected
            [0.0, 0.01, 2.0],  # on the lower bounds, with a zero coordinate
            [1.7, -0.3, 20.0],  # outside the box: clipped onto it
            [0.98, 0.5, 14.5],  # inside, with steps past the upper bounds
        ],
    )
    @np.errstate(divide="ignore", invalid="ignore")
    def test_matches_scipy(self, start, max_iter):
        from scipy.optimize import minimize

        # the reference runs at the simplex's own stopping tolerances
        options = {"maxiter": max_iter, "fatol": calibration._FATOL, "xatol": calibration._XATOL}
        for name, objective in self.objectives().items():
            # every point each side asks for, in order: the transcription is pinned step by step
            ref_points, points = [], []

            def recorded(asked):
                def call(z):
                    asked.append(z.tolist())
                    return objective(z)
                return call

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # scipy warns about a start outside the bounds
                ref = minimize(recorded(ref_points), start, method="Nelder-Mead",
                               bounds=list(zip(self.LO, self.HI)), options=options)
            (x, f, converged, nit), nfev = drive(_simplex(start, self.LO, self.HI, max_iter), recorded(points))
            assert points == ref_points, name
            assert (ref.x.tolist(), ref.nit, ref.nfev, ref.success) == (x, nit, nfev, converged), name
            # f is the value at x; scipy reports min(fsim), NaN when any final vertex is NaN
            assert repr(f) == repr(objective(ref.x)), name
            assert math.isnan(ref.fun) or ref.fun == f, name

    def test_matches_scipy_on_rounded_quadratics(self, monkeypatch):
        # random bounded quadratics whose values are rounded to 2-5 decimals, so
        # vertex values tie; every point asked for must be scipy's
        from scipy.optimize import minimize

        order, ordered = calibration._simplex_order, []

        def spy(sim, fsim):
            ordered.append(1)
            return order(sim, fsim)

        monkeypatch.setattr(calibration, "_simplex_order", spy)
        rng = np.random.default_rng(2023)
        options = {"fatol": calibration._FATOL, "xatol": calibration._XATOL}
        inserted = reordered = 0
        for case in range(240):
            lo = rng.uniform(-2.0, 1.0, 3) * [1.0, 1.0, 10.0]
            hi = lo + rng.uniform(0.1, 3.0, 3) * [1.0, 1.0, 10.0]
            centre = rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo))
            weight, digits = rng.uniform(0.01, 10.0, 3), int(rng.integers(2, 6))
            start = [
                rng.uniform(lo, hi),  # inside
                np.where(rng.random(3) < 0.5, lo, hi),  # on a corner
                hi + rng.uniform(0.01, 2.0, 3),  # outside
            ][case % 3].tolist()
            max_iter = int(rng.integers(1, 300))

            def objective(z, asked):
                asked.append(z.tolist())
                return round(float(np.sum(weight * (z - centre) ** 2)), digits)

            ref_points, points = [], []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # scipy warns about a start outside the bounds
                ref = minimize(objective, start, args=(ref_points,), method="Nelder-Mead",
                               bounds=list(zip(lo, hi)), options={"maxiter": max_iter, **options})
            ordered.clear()
            (x, f, converged, nit), nfev = drive(_simplex(start, lo, hi, max_iter), lambda z: objective(z, points))
            assert points == ref_points, case
            assert (ref.x.tolist(), ref.nit, ref.nfev, ref.success) == (x, nit, nfev, converged), case
            # every completed iteration ends in an insertion or a call of _simplex_order, after the first simplex's
            inserted += nit - len(ordered)
            reordered += len(ordered) - 1
        assert inserted > 0 and reordered > 0

    def test_lockstep_matches_solo_descents(self):
        # two descents from different starts, each scored alone (one point per
        # kernel call) and in lockstep (the live descents' points in one batched call)
        objective = lppl_objective(n=150, seed=3)
        lo = np.array([1e-6, 0.01, 2.0])
        starts = [[0.2, 0.3, 5.0], [0.7, 0.8, 11.0]]
        solo = [drive(_simplex(z, lo, self.HI, 250), lambda p: float(objective(p[None, :])[0])) for z in starts]
        descents = [_simplex(z, lo, self.HI, 250) for z in starts]
        points = [next(d) for d in descents]
        ends, nfev = [None, None], [0, 0]
        while None in ends:
            live = [i for i in range(2) if ends[i] is None]
            for i, f in zip(live, objective(np.array([points[i] for i in live]))):
                nfev[i] += 1
                try:
                    points[i] = descents[i].send(float(f))
                except StopIteration as stop:
                    ends[i] = stop.value
        assert [(end, k) for end, k in zip(ends, nfev)] == solo
        assert solo[0][1] != solo[1][1]  # the descents end at different steps


def polish_rows(series, windows, tc_horizon=0.5):
    """_polish's row inputs for each window: its t_c span, times back from its end and log-prices."""
    span = np.array([[tc_horizon * w.length] for w in windows])
    rev = np.stack([w.t2 - w.times(series) for w in windows])
    return span, rev, np.stack([w.log_prices(series) for w in windows])


class TestPolish:
    LO = np.array([1e-6, 0.01, 2.0])
    HI = np.array([1.0, 0.99, 15.0])

    def descent_ends(self, n, seed, starts, lo, hi):
        objective = lppl_objective(n=n, seed=seed)
        return [drive(_simplex(z, lo, hi, 250), lambda p: float(objective(p[None, :])[0]))[0][0] for z in starts]

    def test_polished_sse_is_at_most_the_descent_end(self):
        starts = [[0.2, 0.3, 5.0], [0.7, 0.8, 11.0], [0.5, 0.5, 7.0]]
        gained = 0
        for n, seed in ((60, 1), (150, 3), (210, 5)):
            s = lppl_series(noise=0.01, seed=seed, n=n)
            z = np.array(self.descent_ends(n, seed, starts, self.LO, self.HI))
            span, rev, y = polish_rows(s, [full_window(s)] * len(z))
            before = _linear_fit(z[:, :1] * span + rev, y, z[:, 1:2], z[:, 2:3])[1]
            polished, sse, beta = _polish(z, span, rev, y, self.LO, self.HI)
            # the returned sse and beta are the solve at the kept point, bit for bit
            at = _linear_fit(polished[:, :1] * span + rev, y, polished[:, 1:2], polished[:, 2:3])
            assert np.array_equal(sse, at[1]) and np.array_equal(beta, at[0])
            assert (sse <= before).all()
            assert ((self.LO <= polished) & (polished <= self.HI)).all()
            gained += int((sse < before).sum())
        assert gained > 0

    @pytest.mark.parametrize("m_range", [(0.1, 0.3), (0.7, 0.9)])
    def test_pinned_fit_stays_in_the_box(self, m_range):
        # TRUE has m = 0.5, so the best fit in either m range lies on a bound
        s = lppl_series(noise=0.01, seed=2)
        w = full_window(s)
        filters = FilterConfig(m_range=m_range)
        lo, hi = np.array([1e-6, m_range[0], 2.0]), np.array([1.0, m_range[1], 15.0])
        z = np.array(self.descent_ends(200, 2, [[0.3, m_range[0] + 0.1, 6.0], [0.6, m_range[1] - 0.1, 9.0]], lo, hi))
        polished, *_ = _polish(z, *polish_rows(s, [w, w]), lo, hi)
        assert ((lo <= polished) & (polished <= hi)).all()
        fit = fit_window(s, w, FAST, filters, seed=4)
        assert fit.params.m in m_range and fit.failures == ("m_in_range",)
        assert w.t2 < fit.params.t_c <= w.t2 + 0.5 * w.length and 2.0 <= fit.params.omega <= 15.0

    def test_singular_row_stops_only_itself(self):
        # log-prices of exactly 0 give beta = 0, so D = 0 and J'J = 0: that
        # window's polish stops at once, the other windows' polish goes on
        s = lppl_series(noise=0.01, seed=6)
        prices = s.prices.copy()
        prices[:80] = 1.0
        s = PriceSeries(s.times, prices)
        flat, *others = (slice_window(s, t2 - 50, t2) for t2 in (50, 199, 160, 120))
        z = np.array([[0.4, 0.5, 7.0], [0.4, 0.5, 7.0]])
        polished, *_ = _polish(z, *polish_rows(s, [flat, others[0]]), self.LO, self.HI)
        assert np.array_equal(polished[0], z[0]) and not np.array_equal(polished[1], z[1])
        windows = [others[0], flat, *others[1:]]
        for window, fit in zip(windows, _fit_windows(s, windows, FAST, FilterConfig(), [1, 2, 3, 4])):
            assert repr(fit) == repr(fit_window(s, window, FAST, seed=windows.index(window) + 1))

    def test_overflowed_row_keeps_sse_inf(self):
        # at m = 1000 the basis overflows wherever dt > 2, so that row's sse is
        # inf from the start; the polish takes it without a numpy warning, and
        # the regular row beside it polishes as it does alone
        s = lppl_series(noise=0.01, seed=1, n=150)
        w = full_window(s)
        lo, hi = np.array([1e-6, 0.01, 2.0]), np.array([1.0, 1001.0, 15.0])
        z = np.array([[0.3, 0.5, 6.0], [0.3, 1000.0, 6.0]])
        span, rev, y = polish_rows(s, [w, w])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = _polish(z, span, rev, y, lo, hi)
            solo = _polish(z[:1], span[:1], rev[:1], y[:1], lo, hi)
        assert batch[1][1] == math.inf and np.array_equal(batch[0][1], z[1])
        assert not np.array_equal(batch[0][0], z[0])
        for rows, row in zip(batch, solo):
            assert np.array_equal(rows[:1], row)


class TestQualify:
    def test_returns_the_judged_fit(self):
        p = LpplParams(t_c=200.0, m=0.5, omega=15.5, phi=0.0, A=5.0, B=-1.0, C=0.1)
        fit = make_fit(p)
        judged = qualify(fit, FilterConfig())
        assert isinstance(judged, FitResult)
        assert (judged.qualified, judged.failures) == (False, ("omega_in_range", "tc_within_horizon"))
        assert replace(judged, failures=(), checks={}) == fit

    def test_all_defaults_pass(self):
        p = LpplParams(t_c=120.0, m=0.5, omega=8.0, phi=0.0, A=5.0, B=-1.0, C=0.1)
        fit = make_fit(p)  # window [0, 100], t_c - t2 = 0.2 * window
        assert oscillation_count(p.omega, p.t_c, 0.0, 100.0) > 2
        v = qualify(fit, FilterConfig())
        assert v.qualified
        assert v.failures == ()

    def test_m_out_of_range(self):
        p = LpplParams(t_c=120.0, m=1.4, omega=8.0, phi=0.0, A=5.0, B=-1.0, C=0.1)
        v = qualify(make_fit(p), FilterConfig())
        assert not v.qualified
        assert "m_in_range" in v.failures

    def test_oscillation_count_formula(self):
        # omega=6, t_c - t1 = 100, t_c - t2 = 10
        n = oscillation_count(6.0, 110.0, 10.0, 100.0)
        assert n == pytest.approx(6.0 * math.log(10.0) / (2 * math.pi), abs=1e-12)
        assert n == pytest.approx(2.199, abs=1e-3)

    def test_too_few_oscillations(self):
        p = LpplParams(t_c=150.0, m=0.5, omega=2.5, phi=0.0, A=5.0, B=-1.0, C=0.1)
        v = qualify(make_fit(p), FilterConfig())
        assert "enough_oscillations" in v.failures

    def test_tc_beyond_horizon(self):
        p = LpplParams(t_c=200.0, m=0.5, omega=8.0, phi=0.0, A=5.0, B=-1.0, C=0.1)
        v = qualify(make_fit(p), FilterConfig())
        assert "tc_within_horizon" in v.failures

    def test_tc_pinned_at_the_search_bound(self):
        # t_c = t2 + tc_horizon * length is the upper end of the t_c search
        p = LpplParams(t_c=150.0, m=0.5, omega=12.0, phi=0.0, A=5.0, B=-1.0, C=0.1)
        v = qualify(make_fit(p), FilterConfig(tc_horizon=0.5))
        assert v.failures == ("tc_within_horizon",)
        inside = replace(p, t_c=150.0 - 1e-9)
        assert qualify(make_fit(inside), FilterConfig(tc_horizon=0.5)).checks["tc_within_horizon"]

    def test_max_rmse_optional(self):
        p = LpplParams(t_c=120.0, m=0.5, omega=8.0, phi=0.0, A=5.0, B=-1.0, C=0.1)
        v = qualify(make_fit(p, rmse=0.5), FilterConfig(max_rmse=0.1))
        assert "rmse_below_max" in v.failures

    def test_line_gain_filter(self):
        p = LpplParams(t_c=120.0, m=0.5, omega=8.0, phi=0.0, A=5.0, B=-1.0, C=0.1)
        fit = replace(make_fit(p), sse=0.9, sse_line=1.0)
        v = qualify(fit, FilterConfig())
        assert "beats_trend_line" in v.failures
        good = replace(fit, sse=0.1)
        assert qualify(good, FilterConfig()).qualified

    # t_c beyond the horizon after too few oscillations
    FAILING = LpplParams(t_c=200.0, m=0.5, omega=8.0, phi=0.0, A=5.0, B=-1.0, C=0.1)

    def test_fits_judged_alike_share_one_verdict(self):
        a = qualify(make_fit(self.FAILING), FilterConfig())
        b = qualify(make_fit(replace(self.FAILING, t_c=190.0, m=0.7), t2=99.0), FilterConfig())
        assert a.failures == ("tc_within_horizon", "enough_oscillations") and a.checks == b.checks
        assert a.checks is b.checks and a.failures is b.failures
        other = qualify(make_fit(replace(self.FAILING, omega=15.5)), FilterConfig())
        assert other.failures == ("omega_in_range", "tc_within_horizon")  # 1.71 oscillations
        assert other.checks is not a.checks and other.failures is not a.failures
        # numpy parameters give numpy bools, which are kept: equal outcome, its own verdict
        as_numpy = qualify(make_fit(replace(self.FAILING, m=np.float64(0.5))), FilterConfig())
        assert type(as_numpy.checks["m_in_range"]) is np.bool_ and type(a.checks["m_in_range"]) is bool
        assert as_numpy.checks == a.checks and as_numpy.checks is not a.checks
        assert as_numpy.checks is qualify(make_fit(replace(self.FAILING, m=np.float64(0.6))), FilterConfig()).checks

    @pytest.mark.parametrize(
        "change",
        [
            lambda c: c.__setitem__("m_in_range", False),
            lambda c: c.__delitem__("m_in_range"),
            lambda c: c.update(m_in_range=False),
            lambda c: c.pop("m_in_range"),
            lambda c: c.popitem(),
            lambda c: c.setdefault("new", True),
            lambda c: c.clear(),
            lambda c: operator.ior(c, {"new": True}),  # c |= {"new": True}
        ],
        ids=["setitem", "delitem", "update", "pop", "popitem", "setdefault", "clear", "ior"],
    )
    def test_checks_refuse_every_change(self, change):
        fit = qualify(make_fit(self.FAILING), FilterConfig())
        before = dict(fit.checks)
        with pytest.raises(TypeError):
            change(fit.checks)
        assert fit.checks == before and qualify(make_fit(self.FAILING), FilterConfig()).checks == before

    @pytest.mark.parametrize(
        "copy_of",
        [
            lambda f: pickle.loads(pickle.dumps(f)),
            lambda f: pickle.loads(pickle.dumps(f, protocol=pickle.HIGHEST_PROTOCOL)),
            copy.deepcopy,
            replace,
        ],
        ids=["pickle", "pickle-highest", "deepcopy", "replace"],
    )
    def test_copies_share_the_verdict(self, copy_of):
        fit = qualify(make_fit(self.FAILING), FilterConfig())
        copied = copy_of(fit)
        assert copied == fit and type(copied.checks) is type(fit.checks)
        assert copied.checks is fit.checks
        # an unpickled fit gets a failures tuple per pickle stream; copies in memory keep the shared one
        assert copied.failures == fit.failures
        if copy_of in (copy.deepcopy, replace):
            assert copied.failures is fit.failures

    @pytest.mark.parametrize("m", [0.5, np.float64(0.5)], ids=["float", "numpy"])
    def test_prints_and_serializes_as_a_plain_dict(self, m):
        fit = qualify(replace(make_fit(replace(self.FAILING, m=m)), sse_line=1.0), FilterConfig())
        plain = replace(fit, checks=dict(fit.checks))
        assert isinstance(fit.checks, dict) and fit.checks == plain.checks
        assert repr(fit) == repr(plain) and f"'m_in_range': {m < 0.99!r}" in repr(fit)
        assert fit.to_dict() == plain.to_dict()
        # numpy parameters give numpy bools, which to_dict writes as JSON booleans
        assert json.dumps(fit.to_dict()) == json.dumps(plain.to_dict())
        # a dict built from the checks, as asdict builds, is a plain dict again
        assert type(asdict(fit)["checks"]) is dict and asdict(fit) == asdict(plain)
        with pytest.raises(TypeError):
            hash(fit)

    def test_judged_fit_keeps_no_checks_of_its_own(self):
        import tracemalloc

        # 2,000 fits shaped like a stored replay ensemble: numpy parameters,
        # daily windows of three lengths, trend lines 1-2.5 times the sse
        rng = np.random.default_rng(7)
        s = PriceSeries(np.arange(600.0), np.exp(np.linspace(4.6, 5.0, 600)))
        fits = []
        for i in range(2000):
            length = (60.0, 120.0, 240.0)[i % 3]
            window = slice_window(s, 599.0 - i % 300 - length, 599.0 - i % 300)
            n = window.n_points
            params = LpplParams(t_c=window.t2 + rng.uniform(0, 0.6) * length, m=rng.uniform(0, 1.05),
                                omega=rng.uniform(1.5, 16.0), phi=rng.uniform(0, 2 * math.pi),
                                A=4.6, B=-rng.uniform(0.01, 0.1), C=rng.uniform(0, 0.05))
            sse = n * 1e-4 * rng.uniform(0.5, 1.5)
            fits.append(FitResult(params=params, window=window, sse=sse, rmse=math.sqrt(sse / n), n_points=n,
                                  qualified=False, sign=sign_of(params.B), sse_line=sse * rng.uniform(1.0, 2.5)))
        filters = FilterConfig()
        # judged once untraced, so the verdicts and the interpreter's free lists exist before the count
        warm = [qualify(fit, filters) for fit in fits]
        tracemalloc.start()
        try:
            judged = [qualify(fit, filters) for fit in fits]
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert judged == warm
        # one checks object per outcome, a bool or numpy bool telling outcomes apart
        outcomes = {tuple((v, type(v)) for v in f.checks.values()) for f in judged}
        assert len({id(f.checks) for f in judged}) == len(outcomes) < 50
        # a judged fit is a new FitResult and its list slot, about 120 B; a checks
        # dict of its own would add 184 B and a failures tuple 40-80 B
        assert kept / len(judged) < 200


class TestClassifySign:
    @pytest.mark.parametrize(
        "B,expected",
        [(-1.0, "positive_bubble"), (1.0, "negative_bubble"), (0.0, "none")],
    )
    def test_sign(self, B, expected):
        p = LpplParams(t_c=120.0, m=0.5, omega=8.0, phi=0.0, A=5.0, B=B, C=0.1)
        assert sign_of(make_fit(p).params.B) == expected


def weekday_series(n, seed=0):
    """An LPPL path of n observations on a weekday-only calendar: weekends are missing."""
    days = np.array([d for d in range(2 * n) if d % 7 < 5][:n], dtype=float)
    return PriceSeries(days, lppl_series(noise=0.01, seed=seed, n=n, params=replace(TRUE, t_c=n + 40.0)).prices)


class TestFitWindow:
    def test_noiseless_recovery(self):
        s = lppl_series()
        fit = fit_window(s, full_window(s), seed=1)
        assert fit.params.t_c == pytest.approx(TRUE.t_c, abs=1.0)
        assert fit.params.m == pytest.approx(TRUE.m, abs=0.02)
        assert fit.params.omega == pytest.approx(TRUE.omega, abs=0.1)

    def test_noisy_recovery_small_sample(self):
        hits = 0
        for seed in range(10):
            s = lppl_series(noise=0.01, seed=seed)
            fit = fit_window(s, full_window(s), FAST, seed=seed)
            p = fit.params
            if (
                abs(p.t_c - TRUE.t_c) <= 0.05 * 199
                and abs(p.m - TRUE.m) <= 0.1
                and abs(p.omega - TRUE.omega) <= 0.5
            ):
                hits += 1
        assert hits >= 9

    def test_deterministic(self):
        s = lppl_series(noise=0.01, seed=3)
        w = full_window(s)
        a = fit_window(s, w, FAST, seed=5)
        b = fit_window(s, w, FAST, seed=5)
        assert a == b

    def test_window_below_the_parameter_count_is_window_error(self):
        # 5 points fit 7 parameters exactly: the fit would be a qualified bubble of sse ~1e-27
        s = lppl_series(noise=0.01, seed=5, n=120)
        window = slice_window(s, 115.0, 119.0, min_points=2)
        with pytest.raises(WindowError, match="fewer than the 7 LPPL parameters"):
            fit_window(s, window, SearchConfig(n_starts=2, max_iter=50))

    @pytest.mark.parametrize("start, stop", [(200, 260), (60, 500), (0, 30)])
    def test_window_outside_the_series_is_window_error(self, start, stop):
        s = lppl_series(noise=0.01, seed=5, n=120)
        with pytest.raises(WindowError, match="not inside"):
            fit_window(s, FitWindow(60.0, 119.0, start, stop), SearchConfig(n_starts=2, max_iter=50))

    def test_different_seed_may_differ_but_both_good(self):
        s = lppl_series(noise=0.01, seed=3)
        w = full_window(s)
        a = fit_window(s, w, FAST, seed=5)
        b = fit_window(s, w, FAST, seed=6)
        assert abs(a.params.t_c - b.params.t_c) < 10

    # the same path in time units of 1e-300, 1e150 and 1e200 days: the trend
    # line, and so the line-gain verdict, must not depend on the time unit
    @pytest.mark.parametrize("step", [1.0, 1e-300, 1e150, 1e200])
    def test_pure_exponential_not_qualified(self, step):
        from lpplscan.model import GrowthSpec

        spec = SynthSpec(
            regime=GrowthSpec(kind="exponential", rate=0.002 / step, p0=10.0),
            t_start=0,
            t_end=199 * step,
            step=step,
            noise_sigma=0.01,
            seed=2,
        )
        s = generate(spec).series
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_window(s, full_window(s), FAST, seed=4)
        assert not fit.qualified
        assert "beats_trend_line" in fit.failures
        assert fit.sse_line == pytest.approx(0.0185104776686, rel=1e-9)

    def test_rmse_definition(self):
        s = lppl_series(noise=0.02, seed=1)
        fit = fit_window(s, full_window(s), FAST, seed=1)
        assert fit.rmse == pytest.approx(math.sqrt(fit.sse / fit.n_points))

    def test_result_serializes(self):
        import json

        s = lppl_series(noise=0.01, seed=1)
        fit = fit_window(s, full_window(s), FAST, seed=1)
        blob = json.loads(json.dumps(fit.to_dict()))
        assert blob["params"]["t_c"] == fit.params.t_c
        assert blob["window"]["t1"] == 0.0
        assert set(blob["filters"]) >= {"m_in_range", "omega_in_range"}

    def test_screen_memory_is_bounded(self):
        import tracemalloc

        s = lppl_series(noise=0.01, seed=2, n=750, params=replace(TRUE, t_c=800.0))
        w = full_window(s)
        tracemalloc.start()
        try:
            # a screen of 10,000 points; held whole, its basis alone would take 240 MB
            fit_window(s, w, SearchConfig(n_starts=200, max_iter=50), seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    # (calendar, window lengths, search); the windows are listed out of grid
    # order, so _fit_windows must form its own groups by n_points
    CASES = {
        "daily": ("daily", (60.0, 90.0, 75.0), FAST),
        "weekday": ("weekday", (44.0, 45.0, 60.0), FAST),
        # 14 windows of 501 points fill more than one lockstep group
        "one_start": ("daily", (500.0, 60.0), SearchConfig(n_starts=1, max_iter=20)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fit_windows_matches_fit_window(self, case):
        calendar, lengths, search = self.CASES[case]
        if calendar == "daily":
            s = lppl_series(noise=0.01, seed=4, n=700, params=replace(TRUE, t_c=740.0))
        else:
            s = weekday_series(500, seed=4)
        ends = s.times[-1:-120:-9]
        windows = [slice_window(s, t2 - length, t2) for length in lengths for t2 in ends]
        seeds = [3 * i + 1 for i in range(len(windows))]
        sizes = [w.n_points for w in windows]
        assert len(set(sizes)) >= 2 and max(sizes.count(n) for n in sizes) >= 2
        if calendar == "weekday":  # windows of one length hold different numbers of points
            assert len({w.n_points for w in windows if w.length == 44.0}) >= 2
        grouped = _fit_windows(s, windows, search, FilterConfig(), seeds)
        assert [repr(f) for f in grouped] == [
            repr(fit_window(s, w, search, seed=seed)) for w, seed in zip(windows, seeds)
        ]

    def test_far_window_end_fits_without_warnings(self):
        # at t2 = 1e308 the polish's Jacobian overflows; the fit takes that silently
        s = lppl_series(noise=0.01, seed=5, n=120)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_window(s, slice_window(s, 0, 1e308), SearchConfig(n_starts=2, max_iter=50))
        assert fit.window.t2 == 1e308 and not fit.qualified

    def test_overflowed_box_fails_without_warnings(self):
        # every basis row overflows: the kernel turns it into an inf sse, silently
        s = PriceSeries(np.arange(500) * 0.01, np.exp(np.linspace(1.0, 2.0, 500)))
        window = slice_window(s, 1.0, 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError):
                fit_window(s, window, SearchConfig(n_starts=1, max_iter=20), FilterConfig(m_range=(1000.0, 1001.0)))

    def test_fit_windows_returns_each_failure_in_place(self):
        # with m of at least 1000 every basis row of a window longer than about
        # 2 time units overflows, so all its descents fail; shorter ones fit
        s = PriceSeries(np.arange(500) * 0.01, np.exp(np.linspace(1.0, 2.0, 500)))
        filters = FilterConfig(m_range=(1000.0, 1001.0))
        search = SearchConfig(n_starts=1, max_iter=20)
        ok, fail_a, fail_b = (slice_window(s, t2 - length, t2) for t2, length in ((4.0, 0.3), (4.0, 3.0), (4.5, 3.0)))
        for order in ([ok, fail_a, fail_b], [fail_b, ok, fail_a]):
            grouped = _fit_windows(s, order, search, filters, [0, 0, 0])
            for window, fit in zip(order, grouped):
                if window is ok:
                    assert repr(fit) == repr(fit_window(s, ok, search, filters)) and fit.n_points == 31
                    continue
                with pytest.raises(FitError) as alone:
                    fit_window(s, window, search, filters)
                assert isinstance(fit, FitError)
                assert str(fit) == str(alone.value) == f"every descent failed to produce a finite fit on [{window.t1}, {window.t2}]"
                assert fit.diagnostics == alone.value.diagnostics


class TestTwoStageScreen:
    @staticmethod
    def exact_starts(z, span, rev, y, scale):
        # the exact kernel over every screen point, in chunks (each row is its one-row call), then a stable argsort
        sse = np.concatenate([
            _linear_fit(c[:, :1] * span + rev, y, c[:, 1:2], c[:, 2:3])[1] for c in np.array_split(z, len(z) // 50)
        ])
        return np.argsort(sse / scale, kind="stable")[:2]

    @staticmethod
    def spy_screens(monkeypatch, prescore_factor=1.0):
        """Record each window's screen calls [(is the pre-score, points)] and its starts against the exact screen's.

        A shared screen (one _screen_best call) pre-scores all its windows at
        once and scores their leaders in one batch; each window is credited
        with the pre-score call and with its own rows of every exact call,
        told apart by their log-prices.
        """
        prescore, screen_sse = calibration._screen_prescore, calibration._screen_sse
        screen_best = calibration._screen_best
        windows, share = [], []

        def owner(row):
            return next(w for w in share if np.array_equal(w["y"], row))

        def spy_prescore(z, span, rev, y):
            pre = prescore(z, span, rev, y) * prescore_factor
            for row, col in zip(y, pre.T):
                w = owner(row)
                w["calls"].append((True, len(z)))
                w["prescore_starts"] = np.argsort(col, kind="stable")[:2].tolist()
            return pre

        def spy_sse(z, span, rev, y):
            rows = [owner(row) for row in np.broadcast_to(y, (len(z), y.shape[-1]))]
            for w in {id(w): w for w in rows}.values():
                w["calls"].append((False, sum(r is w for r in rows)))
            return screen_sse(z, span, rev, y)

        def spy_best(z, span, rev, y, scale):
            share[:] = [{"calls": [], "points": len(z), "y": row, "share_size": len(y)} for row in y]
            windows.extend(share)
            best = screen_best(z, span, rev, y, scale)
            for w, starts, row, row_scale in zip(share, best, y, scale):
                w["starts"] = (starts.tolist(), TestTwoStageScreen.exact_starts(z, span, rev, row, row_scale).tolist())
            return best

        monkeypatch.setattr(calibration, "_screen_prescore", spy_prescore)
        monkeypatch.setattr(calibration, "_screen_sse", spy_sse)
        monkeypatch.setattr(calibration, "_screen_best", spy_best)
        return windows

    # (series, window lengths, search, m_range's lower end); short descents, since only the screen is under test
    CASES = {
        "m_from_1e-4": ("noisy", (60.0, 150.0), SearchConfig(n_starts=8, max_iter=20), 1e-4),
        "m_from_1e-5": ("noisy", (60.0, 150.0), SearchConfig(n_starts=8, max_iter=20), 1e-5),
        "noiseless": ("noiseless", (60.0, 150.0), SearchConfig(n_starts=8, max_iter=20), 0.01),
        "one_start": ("noisy", (30.0, 60.0, 150.0), SearchConfig(n_starts=1, max_iter=20), 0.01),
        "200_starts": ("noisy", (100.0,), SearchConfig(n_starts=200, max_iter=20), 0.01),
        "weekday": ("weekday", (44.0, 90.0), SearchConfig(n_starts=8, max_iter=20), 0.01),
        "near_ties": ("noisy", (60.0, 150.0), SearchConfig(n_starts=8, max_iter=20), 0.01),
        # the windows of one length get one seed, so they share one screen
        "shared": ("noisy", (60.0, 150.0), SearchConfig(n_starts=8, max_iter=20), 0.01),
    }

    @staticmethod
    def case_fits(case):
        kind, lengths, search, m_lo = TestTwoStageScreen.CASES[case]
        if kind == "weekday":
            s = weekday_series(200, seed=6)
        else:
            s = lppl_series(noise=0.01 if kind == "noisy" else 0.0, seed=6)
        windows = [slice_window(s, t2 - length, t2) for length in lengths for t2 in s.times[-1:-40:-19]]
        filters = FilterConfig(m_range=(m_lo, 0.99))
        seeds = [i // 3 if case == "shared" else i for i in range(len(windows))]
        return lambda: [repr(f) for f in _fit_windows(s, windows, search, filters, seeds)]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_picks_the_exact_screens_starts(self, case, monkeypatch):
        fits = self.case_fits(case)
        if case == "near_ties":
            # clusters of 10 points 1e-9 apart, whose exact order the pre-score's float32 rounding scrambles
            lhs = calibration._latin_hypercube

            def clustered(n, d, seed):
                spread = 1 + 1e-9 * np.tile(np.arange(10.0), n // 10)
                return np.repeat(lhs(n // 10, d, seed), 10, axis=0) * spread[:, None]

            monkeypatch.setattr(calibration, "_latin_hypercube", clustered)
        windows = self.spy_screens(monkeypatch)
        fits()
        assert len(windows) == len(self.CASES[case][1]) * 3
        # a window shares its screen with the other end dates of its length only when they share its seed
        assert [w["share_size"] for w in windows] == [3 if case == "shared" else 1] * len(windows)
        for w in windows:
            assert w["starts"][0] == w["starts"][1]
            # the two stages ran and the guard held: a pre-score of every point, then an exact score of fewer
            (pre, n_pre), (exact, n_lead) = w["calls"]
            assert (pre, exact, n_pre) == (True, False, w["points"]) and 2 <= n_lead < n_pre
        if case == "near_ties":
            assert any(w["prescore_starts"] != w["starts"][1] for w in windows)

    @pytest.mark.parametrize("case", ["m_from_1e-5", "weekday", "shared"])
    def test_prescore_off_by_twice_the_tolerance_falls_back(self, case, monkeypatch):
        fits = self.case_fits(case)
        expected = fits()
        windows = self.spy_screens(monkeypatch, prescore_factor=1 + 2 * calibration._PRESCORE_TOL)
        assert fits() == expected
        for w in windows:
            assert w["starts"][0] == w["starts"][1]
            # the leaders' exact sse trips the guard, and the whole screen is scored exactly
            assert [trig32 for trig32, _ in w["calls"]] == [True, False, False] and w["calls"][-1][1] == w["points"]

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    @pytest.mark.parametrize("n", [40, 200, 750])
    def test_prescore_error_is_a_tenth_of_the_tolerance(self, n, noise):
        # the box's corners with m from 1e-5, then a Latin hypercube inside it; the
        # guard checks only the leaders, so an error past this bound must show here
        s = lppl_series(noise=noise, seed=n, n=n, params=replace(TRUE, t_c=n + 40.0))
        rev, span = s.times[-1] - s.times, 0.5 * (s.t_end - s.t_start)
        lo, hi = np.array([1e-6, 1e-5, 2.0]), np.array([1.0, 0.99, 15.0])
        corners = np.array(np.meshgrid(*zip(lo, hi))).reshape(3, -1).T
        z = np.vstack([corners, lo + _latin_hypercube(500, 3, n) * (hi - lo)])
        exact = _linear_fit(z[:, :1] * span + rev, s.log_prices, z[:, 1:2], z[:, 2:3])[1]
        pre = calibration._screen_prescore(z, span, rev, s.log_prices[None])[:, 0]
        assert np.isfinite(exact).all()
        assert (np.abs(pre - exact) <= calibration._PRESCORE_TOL / 10 * exact).all()


class TestSharedScreen:
    """Windows with the same seed, n, span and times back from their end share one screen."""

    @staticmethod
    def grid(calendar):
        # one seed per window length, as scan gives them, at end dates 9 observations apart
        if calendar == "daily":
            s, lengths = lppl_series(noise=0.01, seed=4, n=700, params=replace(TRUE, t_c=740.0)), (60.0, 90.0, 75.0)
        else:
            s, lengths = weekday_series(500, seed=4), (44.0, 45.0, 60.0)
        ends = s.times[-1:-120:-9]
        windows = [slice_window(s, t2 - length, t2) for length in lengths for t2 in ends]
        seeds = [3 * lengths.index(length) + 1 for length in lengths for _ in ends]
        return s, windows, seeds

    @staticmethod
    def spy_shares(monkeypatch, off=None):
        """Record each pre-score call's (span, rev bytes, rows); `off` scales one row's pre-score by 1 + 2 tol."""
        prescore, calls = calibration._screen_prescore, []

        def spy(z, span, rev, y):
            pre = prescore(z, span, rev, y)
            calls.append((float(span[0]), rev.tobytes(), y))
            for j, row in enumerate(y):
                if off is not None and np.array_equal(row, off):
                    pre[:, j] *= 1 + 2 * calibration._PRESCORE_TOL
            return pre

        monkeypatch.setattr(calibration, "_screen_prescore", spy)
        return calls

    @pytest.mark.parametrize("calendar", ["daily", "weekday"])
    def test_shared_screen_matches_fit_window(self, calendar, monkeypatch):
        s, windows, seeds = self.grid(calendar)
        # the shares the windows must form: equal seed, n_points, span and times back from the end; here
        # a length has one seed, so a share is keyed by its span and those times, and each holds up to 14 windows
        expected = {}
        for w, seed in zip(windows, seeds):
            expected.setdefault((0.5 * w.length, (w.t2 - w.times(s)).tobytes()), []).append(w)
        if calendar == "daily":  # each length's windows form one share
            assert len(expected) == 3
        else:  # some windows of one length and n lie on different grids, so they may not share
            assert len(expected) > len({(w.length, w.n_points) for w in windows})
        calls = self.spy_shares(monkeypatch)
        grouped = _fit_windows(s, windows, FAST, FilterConfig(), seeds)
        assert sorted((span, rev, len(y)) for span, rev, y in calls) == sorted(
            (span, rev, len(share)) for (span, rev), share in expected.items())
        assert max(len(y) for _, _, y in calls) > 1
        for span, rev, y in calls:  # a share's rows are its windows' log-prices
            assert np.array_equal(y, [w.log_prices(s) for w in expected[span, rev]])
        monkeypatch.undo()
        assert [repr(f) for f in grouped] == [
            repr(fit_window(s, w, FAST, seed=seed)) for w, seed in zip(windows, seeds)
        ]

    def test_one_screen_for_a_grid_split_into_lockstep_parts(self, monkeypatch):
        # 8 end dates of a 699-day window: n = 700, so a lockstep part holds 4096 // 1400 = 2 windows,
        # and the 8 windows still share one screen
        s = lppl_series(noise=0.01, seed=4, n=800, params=replace(TRUE, t_c=840.0))
        windows = [slice_window(s, t2 - 699.0, t2) for t2 in s.times[-1:-72:-9]]
        search = SearchConfig(n_starts=2, max_iter=40)
        assert len(windows) == 8 and {w.n_points for w in windows} == {700}
        assert calibration._BATCH_ROWS // (2 * 700) == 2
        calls = self.spy_shares(monkeypatch)
        grouped = _fit_windows(s, windows, search, FilterConfig(), [5] * len(windows))
        assert len(calls) == 1 and np.array_equal(calls[0][2], [w.log_prices(s) for w in windows])
        monkeypatch.undo()
        assert [repr(f) for f in grouped] == [repr(fit_window(s, w, search, seed=5)) for w in windows]

    def test_screen_blocks_bound_their_log_prices(self, monkeypatch):
        # with a screen of 50 points, a block's log-prices (windows x n), not its pre-scores, reach the bound first
        s, windows, seeds = self.grid("daily")
        search = SearchConfig(n_starts=1, max_iter=20)
        expected = [repr(fit_window(s, w, search, seed=seed)) for w, seed in zip(windows, seeds)]
        monkeypatch.setattr(calibration, "_SHARED_CELLS", 1000)
        calls = self.spy_shares(monkeypatch)
        grouped = [repr(f) for f in _fit_windows(s, windows, search, FilterConfig(), seeds)]
        assert max(len(y) for *_, y in calls) > 1 and max(y.size for *_, y in calls) <= 1000
        assert grouped == expected

    def test_prescore_off_in_one_window_falls_back_alone(self, monkeypatch):
        s, windows, seeds = self.grid("daily")
        expected = [repr(f) for f in _fit_windows(s, windows, FAST, FilterConfig(), seeds)]
        off = windows[4].log_prices(s)
        self.spy_shares(monkeypatch, off)
        screen_sse, full = calibration._screen_sse, []

        def spy_sse(z, span, rev, y):
            if y.ndim == 1:  # only a fallback scores one window's whole screen
                full.append(y)
            return screen_sse(z, span, rev, y)

        monkeypatch.setattr(calibration, "_screen_sse", spy_sse)
        assert [repr(f) for f in _fit_windows(s, windows, FAST, FilterConfig(), seeds)] == expected
        assert len(full) == 1 and np.array_equal(full[0], off)

    def test_shared_screen_memory_is_bounded(self):
        import tracemalloc

        s = lppl_series(noise=0.01, seed=2, n=400, params=replace(TRUE, t_c=420.0))
        windows = [slice_window(s, t2 - 150.0, t2) for t2 in s.times[-1:-240:-20]]
        tracemalloc.start()
        try:
            # 12 windows share a screen of 10,000 points; their pre-scores alone would take 1 MB, their residuals 145 MB
            _fit_windows(s, windows, SearchConfig(n_starts=200, max_iter=20), FilterConfig(), [1] * len(windows))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestNestingOptimality:
    def test_no_grid_point_beats_returned_sse(self):
        s = lppl_series(noise=0.005, seed=8, n=60)
        w = full_window(s)
        filters = FilterConfig()
        tc_max = w.t2 + filters.tc_horizon * w.length
        best = math.inf
        for t_c in np.linspace(w.t2 + 0.05, tc_max, 20):
            for m in np.linspace(*filters.m_range, 20):
                for omega in np.linspace(*filters.omega_range, 20):
                    *_, sse = solve_linear(s, w, t_c, m, omega)
                    best = min(best, sse)
        # FAST, and the smallest search any caller runs: a one-start screen, 20-iteration descents
        for search in (FAST, SearchConfig(n_starts=1, max_iter=20)):
            fit = fit_window(s, w, search, filters, seed=2)
            assert fit.sse <= best * (1 + 1e-6), search


class TestEquivariance:
    # strict 1e-8 invariance needs a sharp optimum; on noisy data the sse
    # valley is flat enough that last-ulp input rounding moves the argmin
    # more than 1e-8, so the strict checks run on noiseless series
    def test_price_scaling_shifts_only_A(self):
        s = lppl_series(noise=0.0, seed=4)
        w = full_window(s)
        base = fit_window(s, w, FAST, seed=9)
        k = 100.0
        scaled_series = PriceSeries(s.times, s.prices * k, label=s.label)
        scaled = fit_window(scaled_series, full_window(scaled_series), FAST, seed=9)
        assert scaled.params.A == pytest.approx(base.params.A + math.log(k), abs=1e-8)
        for attr in ("t_c", "m", "omega", "phi", "B", "C"):
            assert getattr(scaled.params, attr) == pytest.approx(
                getattr(base.params, attr), abs=1e-8
            )
        assert scaled.qualified == base.qualified
        assert scaled.sign == base.sign

    def test_price_scaling_approximate_on_noisy_data(self):
        s = lppl_series(noise=0.01, seed=4)
        w = full_window(s)
        base = fit_window(s, w, FAST, seed=9)
        scaled_series = PriceSeries(s.times, s.prices * 100.0, label=s.label)
        scaled = fit_window(scaled_series, full_window(scaled_series), FAST, seed=9)
        assert scaled.params.t_c == pytest.approx(base.params.t_c, abs=1e-4)
        assert scaled.qualified == base.qualified
        assert scaled.sign == base.sign

    def test_time_translation_shifts_tc(self):
        s = lppl_series(noise=0.01, seed=4)
        w = full_window(s)
        base = fit_window(s, w, FAST, seed=9)
        delta = 1024.0
        shifted_series = PriceSeries(s.times + delta, s.prices, label=s.label)
        shifted = fit_window(
            shifted_series, full_window(shifted_series), FAST, seed=9
        )
        # the search and the final linear solve run in window-relative time,
        # so the fit is bit-identical; only the absolute t_c rounds at its own ulp
        assert shifted.params.t_c - delta == pytest.approx(base.params.t_c, abs=1e-9)
        for attr in ("m", "omega", "phi", "A", "B", "C"):
            assert getattr(shifted.params, attr) == getattr(base.params, attr), attr
        assert shifted.sse == base.sse
