import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from lpplscan import scanner
from lpplscan.calibration import FilterConfig, SearchConfig
from lpplscan.errors import DomainError, FitError
from lpplscan.model import GrowthSpec, LpplParams
from lpplscan.scanner import (
    ScanConfig,
    alarm_index,
    default_window_ladder,
    nearest_rank_quantile,
    report,
    scan,
    tc_distribution,
)
from lpplscan.synth import SynthSpec, generate
from lpplscan.timeseries import PriceSeries

BUBBLE = LpplParams(t_c=150.0, m=0.5, omega=6.28, phi=1.0, A=8.0, B=-0.8, C=0.05)
FAST = SearchConfig(n_starts=5, max_iter=200)


def bubble_series(seed=0, noise=0.01):
    spec = SynthSpec(
        regime=BUBBLE, t_start=0, t_end=139, step=1.0, noise_sigma=noise, seed=seed
    )
    return generate(spec).series


def exp_series(seed=0):
    spec = SynthSpec(
        regime=GrowthSpec(kind="exponential", rate=0.002, p0=10.0),
        t_start=0,
        t_end=139,
        step=1.0,
        noise_sigma=0.01,
        seed=seed,
    )
    return generate(spec).series


def fake_fit(date, qualified, t_c=200.0, sign="positive_bubble"):
    """Lightweight stand-in carrying only the fields the aggregators read."""

    class _W:
        t2 = date

    class _P:
        pass

    class _F:
        pass

    f = _F()
    f.window = _W()
    p = _P()
    p.t_c = t_c
    f.params = p
    f.qualified = qualified
    f.sign = sign
    return f


class TestWindowLadder:
    def test_default_ladder(self):
        ladder = default_window_ladder()
        assert ladder[0] == 60.0
        assert ladder[-1] <= 750.0
        ratios = [b / a for a, b in zip(ladder, ladder[1:])]
        assert ratios == pytest.approx([1.3] * len(ratios))


class TestScanGrid:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_windows_of_one_length_share_its_seed(self, n_jobs):
        # every window of length index wi is fitted with the seed _task_seed(seed, wi), so a scan
        # of one end date fits as before and the end dates of a length share their screen points
        s = bubble_series(seed=5)
        cfg = ScanConfig(window_lengths=(60.0, 90.0), end_every=20, search=FAST, seed=3, n_jobs=n_jobs)
        fits = scan(s, cfg).fits
        assert len({f.window.t2 for f in fits}) > 1
        for fit in fits:
            seed = scanner._task_seed(3, cfg.window_lengths.index(fit.window.length))
            assert repr(fit) == repr(scanner.fit_window(s, fit.window, FAST, seed=seed))

    def test_length_seed_keeps_its_entropy(self):
        # the entropy [seed, wi, 0] that scans have always seeded with, so seeded fits keep their bytes
        for seed, wi in ((0, 0), (3, 1), (7, 9)):
            assert scanner._task_seed(seed, wi) == int(np.random.SeedSequence([seed, wi, 0]).generate_state(1)[0])

    def test_degenerate_grid_single_fit(self):
        s = bubble_series()
        cfg = ScanConfig(
            window_lengths=(139.0,), end_every=1000, search=FAST, seed=1
        )
        result = scan(s, cfg)
        assert len(result.fits) == 1
        assert result.fits[0].window.t2 == 139.0

    def test_grid_cardinality(self):
        s = bubble_series()
        # 3 window lengths x 4 end dates, all feasible
        cfg = ScanConfig(
            window_lengths=(40.0, 50.0, 60.0),
            end_every=20,
            min_points=30,
            search=FAST,
            seed=1,
        )
        result = scan(s, cfg)
        dates_with_all = [d for d in result.end_dates if d >= 60.0]
        expected = sum(
            1 for d in result.end_dates for L in (40.0, 50.0, 60.0) if d - L >= 0
        )
        assert len(result.fits) == expected
        assert len(dates_with_all) >= 4

    def test_infeasible_pairs_counted(self):
        s = bubble_series()
        cfg = ScanConfig(
            window_lengths=(60.0, 1000.0), end_every=50, search=FAST, seed=1
        )
        result = scan(s, cfg)
        assert result.n_skipped > 0
        assert all(f.window.length <= 139 for f in result.fits)
        assert result.n_skipped + len(result.fits) == len(result.end_dates) * 2
        # 50 weekdays in days 0..68: a 10-day window spans 11 days and holds 7 to 9
        # of them, so min_points=8 refuses some 10-day pairs, and the 100-day pairs
        # start before the data. k = 7 divides n - 1 = 49, k = 20 does not, k = 50 >= n
        days = np.array([d for d in range(70) if d % 7 < 5], dtype=float)
        weekdays = PriceSeries(days, np.exp(np.linspace(1.0, 2.0, len(days))))
        n, lengths = len(days), (10.0, 100.0)
        for k in (7, 20, n):
            cfg = ScanConfig(window_lengths=lengths, end_every=k, min_points=8, search=FAST, seed=1)
            result = scan(weekdays, cfg)
            assert result.end_dates == tuple(days[(n - 1) % k :: k])
            assert result.n_skipped + len(result.fits) == len(result.end_dates) * len(lengths)
            early = sum(t2 - length < days[0] for t2 in result.end_dates for length in lengths)
            short = sum(
                t2 - length >= days[0] and np.count_nonzero((days >= t2 - length) & (days <= t2)) < 8
                for t2 in result.end_dates for length in lengths
            )
            assert result.n_skipped == early + short
            if k == 7:
                assert early > len(result.end_dates) and short > 0

    def test_no_feasible_pair_is_error(self):
        s = bubble_series()
        cfg = ScanConfig(window_lengths=(1000.0,), search=FAST, seed=1)
        with pytest.raises(DomainError, match="feasible"):
            scan(s, cfg)

    def test_deterministic(self):
        s = bubble_series(seed=5)
        cfg = ScanConfig(window_lengths=(60.0, 90.0), end_every=60, search=FAST, seed=3)
        a = scan(s, cfg)
        b = scan(s, cfg)
        assert a == b

    def test_parallel_matches_serial(self):
        s = bubble_series(seed=5)
        base = ScanConfig(window_lengths=(60.0, 90.0), end_every=100, search=FAST, seed=3)
        par = ScanConfig(
            window_lengths=(60.0, 90.0), end_every=100, search=FAST, seed=3, n_jobs=2
        )
        serial = scan(s, base).fits
        assert serial == scan(s, par).fits
        # fewer windows than jobs
        assert len(serial) == 2 and serial == scan(s, replace(par, n_jobs=3)).fits
        # a weekday-only calendar: windows of one length differ in n_points,
        # so the pooled scan fits many groups, some of them shared by two lengths
        days = np.array([d for d in range(196) if d % 7 < 5], dtype=float)
        weekdays = PriceSeries(days, bubble_series(seed=6).prices)
        base = ScanConfig(window_lengths=(44.0, 45.0, 60.0), end_every=9, search=FAST, seed=4)
        serial = scan(weekdays, base)
        assert len({f.n_points for f in serial.fits if f.window.length == 44.0}) >= 2
        assert serial.fits == scan(weekdays, replace(base, n_jobs=2)).fits
        # more jobs than a 2-core box has CPUs
        assert serial.fits == scan(weekdays, replace(base, n_jobs=3)).fits

    def test_pooled_failure_matches_serial(self):
        # with m of at least 1000 every basis row of a window longer than about
        # 2 time units overflows, so all its descents fail; 0.3-unit windows fit.
        # In grid order the first failure is the 2.5-unit window at the first
        # date that has one; the pool starts with the 3.0-unit group, the largest n
        s = PriceSeries(np.arange(501) * 0.01, np.exp(np.linspace(1.0, 2.0, 501)))
        cfg = ScanConfig(
            window_lengths=(0.3, 2.5, 3.0), end_every=25, search=SearchConfig(n_starts=1, max_iter=20),
            filters=FilterConfig(m_range=(1000.0, 1001.0)), seed=1,
        )
        errors = []
        for jobs in (1, 2):
            with pytest.raises(FitError) as exc:
                scan(s, replace(cfg, n_jobs=jobs))
            errors.append((str(exc.value), exc.value.diagnostics))
        first = min(t2 for t2 in s.times[::-25] if t2 - 2.5 >= 0)
        assert errors[0][0] == f"every descent failed to produce a finite fit on [{first - 2.5}, {first}]"
        assert errors[1] == errors[0]

    def test_pool_is_capped_at_cpus_and_windows(self, monkeypatch):
        import concurrent.futures

        asked, submitted, fitted = [], [], []

        class InlinePool:
            # records the pool size and each submitted share, and runs the share in this process
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                submitted.append(args[1])
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        s = bubble_series(seed=5)
        cfg = ScanConfig(window_lengths=(60.0, 90.0), end_every=10, search=FAST, seed=3)
        one = replace(cfg, window_lengths=(60.0,), end_every=1000)
        serial, serial_one = scan(s, cfg).fits, scan(s, one).fits
        assert len(serial_one) == 1

        fit_windows = scanner._fit_windows

        def spy(series, windows, *rest):
            fitted.append(windows)
            return fit_windows(series, windows, *rest)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(scanner, "_fit_windows", spy)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        for config, fits in ((replace(cfg, n_jobs=2), serial), (replace(cfg, n_jobs=10_000), serial),
                             (replace(one, n_jobs=10_000), serial_one)):
            for record in (asked, submitted, fitted):
                record.clear()
            assert scan(s, config).fits == fits
            k = min(config.n_jobs, cpus, len(fits))
            # k processes compute: k - 1 workers, and no pool at all when k == 1
            assert asked == ([k - 1] if k > 1 else [])
            assert len(submitted) == k - 1
            in_process = [share for share in fitted if not any(share is sub for sub in submitted)]
            assert len(in_process) == 1 and len(fitted) == k
            # the shares cover every window exactly once
            spans = sorted((w.start, w.stop) for share in fitted for w in share)
            assert spans == sorted((f.window.start, f.window.stop) for f in fits)

    def test_import_leaves_the_process_pool_out(self):
        # the pool's modules load only when a scan runs on more than one job
        code = (
            "import sys, lpplscan as L\n"
            "loaded = lambda: [m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules]\n"
            "print(loaded())\n"
            "s = L.PriceSeries(list(range(60)), [1.0 + 0.01 * i for i in range(60)])\n"
            "L.report(s, L.ScanConfig(window_lengths=(40.0,), end_every=30, search=L.SearchConfig(n_starts=1, max_iter=5)))\n"
            "print(loaded())\n"
        )
        path = os.pathsep.join(sys.path)
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.split() == ["[]", "[]"]

    @pytest.mark.parametrize("method", ["forkserver", "spawn"])
    def test_pooled_report_under_start_method(self, method):
        # a worker that is not forked gets its share, and returns its fits, only through pickle
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        if cpus < 2:
            pytest.skip("a pooled scan needs 2 CPUs")
        code = (
            "import dataclasses, multiprocessing, sys, lpplscan as L\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "bubble = L.LpplParams(t_c=150.0, m=0.5, omega=6.28, phi=1.0, A=8.0, B=-0.8, C=0.05)\n"
            "s = L.generate(L.SynthSpec(regime=bubble, t_start=0, t_end=139, step=1.0, noise_sigma=0.01, seed=5)).series\n"
            "cfg = L.ScanConfig(window_lengths=(60.0, 90.0), end_every=20, search=L.SearchConfig(2, 60), seed=3)\n"
            "one = L.report(s, cfg)\n"
            "pooled = L.report(s, dataclasses.replace(cfg, n_jobs=2))\n"
            "print(one.n_fits, 'concurrent.futures.process' in sys.modules, one == pooled)\n"
            "fits, pooled_fits = L.scan(s, cfg).fits, L.scan(s, dataclasses.replace(cfg, n_jobs=2)).fits\n"
            # unpickled fits take this process's verdict of their outcome: one checks object per outcome
            "outcomes = {tuple(f.checks.items()) for f in pooled_fits}\n"
            "shared = len({id(f.checks) for f in pooled_fits}) == len(outcomes)\n"
            "shared = shared and all(a.checks is b.checks for a, b in zip(fits, pooled_fits))\n"
            "print(fits == pooled_fits, len(outcomes), shared)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True, check=True, timeout=120,
        )
        n_fits, pool_started, equal, fits_equal, n_outcomes, shared = out.stdout.split()
        assert int(n_fits) > 2 and pool_started == "True" and equal == "True"
        assert fits_equal == "True" and int(n_outcomes) >= 2 and shared == "True"

    def test_qualified_fraction_peaks_near_tc(self):
        s = bubble_series(seed=2)
        cfg = ScanConfig(
            window_lengths=(50.0, 70.0, 90.0), end_every=10, search=FAST, seed=3
        )
        result = scan(s, cfg)
        # the series ends 11 days before t_c, so "near" means the last dates;
        # the earliest feasible end dates sit around t=59
        near = [f for f in result.fits if f.window.t2 >= BUBBLE.t_c - 15]
        early = [f for f in result.fits if f.window.t2 <= 100.0]
        assert near and early
        frac_near = sum(f.qualified for f in near) / len(near)
        frac_early = sum(f.qualified for f in early) / len(early)
        assert frac_near > frac_early


class TestAlarmIndex:
    def test_all_qualified(self):
        fits = [fake_fit(10.0, True) for _ in range(10)]
        assert alarm_index(fits, 10.0) == 1.0

    def test_none_qualified(self):
        fits = [fake_fit(10.0, False) for _ in range(10)]
        assert alarm_index(fits, 10.0) == 0.0

    def test_fraction(self):
        fits = [fake_fit(10.0, i < 3) for i in range(12)]
        assert alarm_index(fits, 10.0) == 0.25

    def test_no_fits_at_date(self):
        fits = [fake_fit(10.0, True)]
        assert alarm_index(fits, 20.0) == 0.0

    def test_removing_unqualified_fit_never_decreases_alarm(self):
        fits = [fake_fit(10.0, i % 3 == 0) for i in range(9)]
        base = alarm_index(fits, 10.0)
        for i, f in enumerate(fits):
            if not f.qualified:
                reduced = fits[:i] + fits[i + 1 :]
                assert alarm_index(reduced, 10.0) >= base


class TestTcDistribution:
    def test_single_sample(self):
        fits = [fake_fit(10.0, True, t_c=42.0)]
        band = tc_distribution(fits, 10.0)
        assert (band.low, band.median, band.high) == (42.0, 42.0, 42.0)

    def test_nearest_rank_on_five_samples(self):
        fits = [fake_fit(10.0, True, t_c=v) for v in (30, 10, 50, 20, 40)]
        band = tc_distribution(fits, 10.0, band=(0.1, 0.9))
        assert band.median == 30
        assert (band.low, band.high) == (10, 50)

    def test_no_signal(self):
        fits = [fake_fit(10.0, False, t_c=42.0)]
        assert tc_distribution(fits, 10.0) is None

    @pytest.mark.parametrize(
        "band",
        [(0.1, 0.9, 0.95), (0.1,), (), (0.9, 0.1), (0.5, 0.9), (0.1, 0.5), (0.0, 0.9), (0.1, 1.0), (math.nan, 0.9)],
    )
    def test_band_is_two_levels_around_the_median(self, band):
        # one check serves the config and the aggregator, whether or not the date has samples
        with pytest.raises(DomainError, match="band must be two levels"):
            ScanConfig(band=band)
        for fits in ([fake_fit(10.0, True, t_c=v) for v in (30, 10, 50)], []):
            with pytest.raises(DomainError, match="band must be two levels"):
                tc_distribution(fits, 10.0, band)

    def test_nearest_rank_rule(self):
        samples = [1, 2, 3, 4]
        assert nearest_rank_quantile(samples, 0.5) == 2
        assert nearest_rank_quantile(samples, 0.51) == 3
        assert nearest_rank_quantile(samples, 0.25) == 1
        assert nearest_rank_quantile(samples, 1.0) == 4
        # q is read as the decimal it prints as: in binary 0.07 * 100 is 7.000000000000001
        assert nearest_rank_quantile(range(1, 101), 0.07) == 7
        assert nearest_rank_quantile(range(1, 26), 0.28) == 7
        with pytest.raises(DomainError):
            nearest_rank_quantile([], 0.5)
        for q in (-0.1, 1.5, math.nan):
            with pytest.raises(DomainError):
                nearest_rank_quantile([1, 2], q)


class TestReport:
    def test_no_qualified_fits_anywhere(self):
        # strict rmse ceiling disqualifies everything
        s = bubble_series(seed=1)
        cfg = ScanConfig(
            window_lengths=(60.0, 90.0),
            end_every=60,
            search=FAST,
            filters=FilterConfig(max_rmse=1e-12),
            seed=3,
        )
        rep = report(s, cfg)
        assert all(r.alarm == 0.0 for r in rep.records)
        assert all(r.tc_band is None for r in rep.records)
        assert rep.max_alarm == 0.0

    def test_bubble_alarm_peaks_late(self):
        s = bubble_series(seed=3)
        cfg = ScanConfig(
            window_lengths=(50.0, 70.0, 90.0), end_every=15, search=FAST, seed=3
        )
        rep = report(s, cfg)
        best = max(rep.records, key=lambda r: r.alarm)
        assert best.alarm > 0.5
        assert best.date >= 139.0 * 0.75

    def test_alarm_consistency(self):
        s = bubble_series(seed=3)
        cfg = ScanConfig(window_lengths=(60.0, 90.0), end_every=40, search=FAST, seed=3)
        rep = report(s, cfg)
        for r in rep.records:
            assert 0.0 <= r.alarm <= 1.0
            if r.total_count:
                assert r.alarm == pytest.approx(r.qualified_count / r.total_count)
            assert r.positive_count + r.negative_count <= r.qualified_count
            if r.tc_band:
                assert r.tc_band.low <= r.tc_band.median <= r.tc_band.high

    def test_serialization(self):
        import json

        s = bubble_series(seed=3)
        cfg = ScanConfig(window_lengths=(60.0,), end_every=80, search=FAST, seed=3)
        rep = report(s, cfg)
        blob = json.loads(json.dumps(rep.to_dict()))
        assert blob["n_fits"] == rep.n_fits
        rows = rep.to_csv_rows()
        assert rows[0] == [
            "date", "alarm", "qualified", "total", "tc_q10", "tc_median", "tc_q90", "sign",
        ]
        assert len(rows) == len(rep.records) + 1
        quartiles = report(s, replace(cfg, band=(0.25, 0.75))).to_csv_rows()
        assert quartiles[0][4:7] == ["tc_q25", "tc_median", "tc_q75"]

    def test_scale_equivariance_of_report(self):
        s = bubble_series(seed=2, noise=0.0)
        cfg = ScanConfig(window_lengths=(60.0, 90.0), end_every=60, search=FAST, seed=3)
        base = report(s, cfg)
        scaled = report(PriceSeries(s.times, s.prices * 100.0, label=s.label), cfg)
        for a, b in zip(base.records, scaled.records):
            assert a.alarm == b.alarm
            assert a.sign == b.sign
            if a.tc_band is not None:
                assert b.tc_band.median == pytest.approx(a.tc_band.median, abs=1e-8)
