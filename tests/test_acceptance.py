"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The statistical criteria (4, 5, 6) run 100 seeded trials apiece and
dominate the runtime (the module takes about 40 s on one core of a 2-core host).
"""

import math

import numpy as np

from lpplscan.calibration import SearchConfig, fit_window
from lpplscan.cli import main
from lpplscan.model import (
    DividendModel,
    GrowthSpec,
    LpplParams,
    cascade,
    gordon_shapiro_price,
    growth_value,
    lppl_basis,
    lppl_log_price,
    singular_time,
)
from lpplscan.scanner import ScanConfig, report
from lpplscan.synth import SynthSpec, generate
from lpplscan.timeseries import PriceSeries, slice_window

RECOVERY_TRUTH = LpplParams(t_c=220.0, m=0.5, omega=6.28, phi=1.0, A=8.0, B=-1.0, C=0.05)
SCAN_TRUTH = LpplParams(t_c=210.0, m=0.5, omega=6.28, phi=1.0, A=8.0, B=-0.8, C=0.05)
SCAN_SEARCH = SearchConfig(n_starts=6, max_iter=250)
SCAN_CONFIG = ScanConfig(
    window_lengths=(40.0, 50.0, 60.0, 75.0, 90.0, 110.0, 130.0, 155.0, 180.0),
    end_every=85,
    search=SCAN_SEARCH,
    seed=11,
)
N_TRIALS = 100


def verdict(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_gordon_shapiro():
    a = gordon_shapiro_price(DividendModel(100, 0.08, 0.04))
    b = gordon_shapiro_price(DividendModel(100, 0.06, 0.04))
    verdict("1 gordon-shapiro prices", abs(a - 2500) < 1e-9 and abs(b - 5000) < 1e-9)


def test_criterion_2_cascade_and_singularity():
    rows = cascade(2.0, 0.02, 40)
    table = [34.65, 17.33, 8.66, 4.33, 2.17, 1.08, 0.54, 0.27, 0.14, 0.07]
    times_ok = all(
        abs(rows[k].doubling_time - table[k]) <= 0.01 for k in range(10)
    )
    sing = singular_time(0.02)
    sing_ok = abs(sing - 69.31) <= 0.05
    cumulative = rows[-1].time + rows[-1].doubling_time
    zeno_ok = abs(cumulative - 2 * math.log(2) / 0.02) < 1e-6
    verdict("2 cascade / singular time", times_ok and sing_ok and zeno_ok)


def test_criterion_3_lppl_basis_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        t_c = rng.uniform(50, 150)
        m = rng.uniform(0.01, 0.99)
        omega = rng.uniform(2, 15)
        A, B = rng.uniform(-10, 10, 2)
        C = rng.uniform(-2, 2)
        phi = rng.uniform(0, 2 * math.pi)
        t = t_c - rng.uniform(1e-2, 1e2)
        p = LpplParams(t_c=t_c, m=m, omega=omega, phi=phi, A=A, B=B, C=C)
        dot = lppl_basis(t_c, m, omega, t) @ np.array([A, B, p.c1, p.c2])
        worst = max(worst, abs(dot - lppl_log_price(p, t)))
    verdict(f"3 basis identity (max diff {worst:.2e})", worst < 1e-12)


def test_criterion_4_parameter_recovery():
    hits = 0
    for seed in range(N_TRIALS):
        s = generate(
            SynthSpec(
                regime=RECOVERY_TRUTH,
                t_start=0,
                t_end=199,
                step=1.0,
                noise_sigma=0.01,
                seed=seed,
            )
        ).series
        window = slice_window(s, 0, 199)
        fit = fit_window(s, window, seed=seed)
        p = fit.params
        if (
            abs(p.t_c - RECOVERY_TRUTH.t_c) <= 0.05 * window.length
            and abs(p.m - RECOVERY_TRUTH.m) <= 0.1
            and abs(p.omega - RECOVERY_TRUTH.omega) <= 0.5
        ):
            hits += 1
    verdict(f"4 parameter recovery ({hits}/{N_TRIALS})", hits >= 90)


def null_series(seed):
    return generate(
        SynthSpec(
            regime=GrowthSpec(kind="exponential", rate=0.002, p0=10.0),
            t_start=0,
            t_end=199,
            step=1.0,
            noise_sigma=0.02,
            seed=seed,
        )
    ).series


def bubble_series(seed):
    return generate(
        SynthSpec(
            regime=SCAN_TRUTH,
            t_start=0,
            t_end=199,
            step=1.0,
            noise_sigma=0.02,
            seed=seed,
        )
    ).series


def test_criterion_5_null_control():
    alarms = []
    max_alarm = 0.0
    for seed in range(N_TRIALS):
        rep = report(null_series(1000 + seed), SCAN_CONFIG)
        alarms.extend(r.alarm for r in rep.records)
        max_alarm = max(max_alarm, rep.max_alarm)
    mean_alarm = float(np.mean(alarms))
    verdict(
        f"5 null control (mean {mean_alarm:.4f}, max {max_alarm:.2f})",
        mean_alarm < 0.1 and max_alarm < 1.0,
    )


def test_criterion_6_positive_signal():
    covered = 0
    alarmed = 0
    for seed in range(N_TRIALS):
        rep = report(bubble_series(2000 + seed), SCAN_CONFIG)
        last = rep.records[-1]
        if last.tc_band is not None and (
            last.tc_band.low <= SCAN_TRUTH.t_c <= last.tc_band.high
        ):
            covered += 1
        if rep.max_alarm > 0.5:
            alarmed += 1
    verdict(
        f"6 positive signal (cover {covered}/{N_TRIALS}, alarm {alarmed}/{N_TRIALS})",
        covered >= 70 and alarmed >= 80,
    )


def test_criterion_7_equivariance():
    # sharp optimum needed for the 1e-8 tolerance: noiseless series
    s = generate(
        SynthSpec(regime=RECOVERY_TRUTH, t_start=0, t_end=199, step=1.0)
    ).series
    search = SearchConfig(n_starts=8, max_iter=300)
    base = fit_window(s, slice_window(s, 0, 199), search, seed=9)
    ok = True
    for k in (0.01, 1.0, 100.0):
        scaled = PriceSeries(s.times, s.prices * k, label=s.label)
        fit = fit_window(scaled, slice_window(scaled, 0, 199), search, seed=9)
        ok &= abs(fit.params.t_c - base.params.t_c) <= 1e-8
        ok &= abs(fit.params.m - base.params.m) <= 1e-8
        ok &= abs(fit.params.omega - base.params.omega) <= 1e-8
        ok &= abs(fit.params.A - math.log(k) - base.params.A) <= 1e-8
        ok &= fit.qualified == base.qualified
    delta = 512.0
    shifted = PriceSeries(s.times + delta, s.prices, label=s.label)
    fit = fit_window(shifted, slice_window(shifted, delta, 199 + delta), search, seed=9)
    # search runs in window-relative time, so the shift is exact up to the
    # final rounding of the absolute t_c at its own ulp
    ok &= abs(fit.params.t_c - delta - base.params.t_c) <= 1e-9
    ok &= fit.params.m == base.params.m and fit.params.omega == base.params.omega
    verdict("7 equivariance", ok)


def test_criterion_8_hyperbolic_vs_exponential():
    hyp = GrowthSpec(kind="hyperbolic", t_c=100.0, alpha=1.0, scale=100.0)
    v0, v50 = growth_value(hyp, 0.0), growth_value(hyp, 50.0)
    expo = GrowthSpec(
        kind="exponential", rate=math.log(v50 / v0) / 50.0, p0=v0
    )
    ts = np.linspace(0.5, 99.0, 20_000)
    diff = growth_value(hyp, ts) - growth_value(expo, ts)
    signs = np.sign(diff)
    crossings = np.nonzero(np.diff(signs))[0]
    ok = len(crossings) == 1 and signs[0] < 0 and signs[-1] > 0
    verdict("8 hyperbolic overtakes exponential once", ok)


def test_criterion_9_cli_determinism(tmp_path, capsys):
    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out

    ok = True

    ok &= run(["price", "--dividend", "9", "--return", "0.07", "--growth", "0.02"]) == run(
        ["price", "--dividend", "9", "--return", "0.07", "--growth", "0.02"]
    )
    ok &= run(["cascade", "--p0", "2", "--rate", "0.02", "--steps", "10"]) == run(
        ["cascade", "--p0", "2", "--rate", "0.02", "--steps", "10"]
    )

    synth_args = [
        "synth", "--regime", "lppl",
        "--params", "t_c=210", "m=0.5", "omega=6.28", "phi=1", "A=8", "B=-0.8", "C=0.05",
        "--grid", "0,139,1", "--noise", "0.01", "--seed", "3",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(synth_args + ["--out", str(a)])
    run(synth_args + ["--out", str(b)])
    ok &= a.read_bytes() == b.read_bytes()
    ok &= a.with_suffix(".truth.json").read_bytes() == b.with_suffix(".truth.json").read_bytes()

    fit_args = [
        "fit", "--input", str(a), "--date-column", "time",
        "--t1", "0", "--t2", "139", "--filters", "n_starts=4", "--seed", "5",
    ]
    f1, f2 = tmp_path / "f1.json", tmp_path / "f2.json"
    run(fit_args + ["--out", str(f1)])
    run(fit_args + ["--out", str(f2)])
    ok &= f1.read_bytes() == f2.read_bytes()

    scan_args = [
        "scan", "--input", str(a), "--date-column", "time",
        "--windows", "60,90", "--every", "60", "--filters", "n_starts=4", "--seed", "5",
    ]
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    run(scan_args + ["--out", str(d1)])
    run(scan_args + ["--out", str(d2)])
    for name in ("a_report.json", "a_report.csv"):
        ok &= (d1 / name).read_bytes() == (d2 / name).read_bytes()

    verdict("9 cli determinism", ok)
