"""Tests of the benchmark itself: its checks reject corrupted outputs, and every workload runs.

    PYTHONPATH=src python -m pytest -q benchmark
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import lpplscan as L
from checks import band_of, check_date, check_fit, check_replay, feasible_lengths, group_by_end

HERE = Path(__file__).resolve().parent
TRUTH = L.LpplParams(t_c=130.0, m=0.5, omega=7.0, phi=1.0, A=6.0, B=-0.15, C=0.012)
SERIES = L.generate(L.SynthSpec(regime=TRUTH, t_start=0, t_end=119, step=1, noise_sigma=0.01, seed=5)).series
CONFIG = L.ScanConfig(window_lengths=(40.0, 60.0), end_every=20, search=L.SearchConfig(n_starts=4, max_iter=200))


@pytest.fixture(scope="module")
def backtest_report():
    return L.report(SERIES, CONFIG).to_dict()


def date_errors(rec: dict) -> list[str]:
    t = list(SERIES.times)
    lengths = feasible_lengths(t, rec["date"], CONFIG.window_lengths, CONFIG.min_points)
    return check_date(rec, rec["date"], lengths, CONFIG.band, CONFIG.filters.tc_horizon)


def test_date_checks_pass_on_report_output(backtest_report):
    for rec in backtest_report["dates"]:
        assert date_errors(rec) == []


def test_date_checks_reject_flipped_alarm_and_dropped_sample(backtest_report):
    signal = next(r for r in backtest_report["dates"] if r["qualified"] and r["alarm"] != 0.5)
    flipped = dict(signal, alarm=1.0 - signal["alarm"])
    assert any("alarm" in e for e in date_errors(flipped))
    requalified = dict(signal, qualified=signal["qualified"] - 1)
    assert date_errors(requalified)
    dropped = dict(signal, tc_samples=signal["tc_samples"][1:])
    assert any("tc samples" in e for e in date_errors(dropped))
    empty = next(r for r in backtest_report["dates"] if r["total"] == 0)
    assert any("feasible" in e for e in date_errors(dict(empty, total=1)))


def test_replay_check_rejects_flipped_alarm_and_dropped_sample():
    ensemble = [(10.0, True, 12.0), (10.0, False, 13.0), (10.0, True, 11.5), (20.0, False, 25.0)]
    groups = group_by_end(ensemble)
    band = (0.1, 0.9)
    good = [(10.0, 2 / 3, band_of([12.0, 11.5], band)), (20.0, 0.0, None), (30.0, 0.0, None)]
    assert check_replay(good, groups, band) == []
    assert check_replay([(10.0, 1 / 3, good[0][2])], groups, band)
    assert check_replay([(10.0, 2 / 3, band_of([12.0], band))], groups, band)
    assert check_replay([(20.0, 0.0, (25.0, 25.0, 25.0))], groups, band)


def test_nearest_rank_reads_q_as_its_decimal():
    samples = list(range(1, 31))
    assert band_of(samples, (0.1, 0.9)) == (3, 15, 27)


@pytest.fixture(scope="module")
def truth_fit():
    window = L.slice_window(SERIES, 119.0 - 60.0, 119.0)
    fit = L.fit_window(SERIES, window, CONFIG.search, CONFIG.filters, seed=3)
    lo, hi = window.start, window.stop
    return fit.to_dict(), SERIES.times[lo:hi], SERIES.log_prices[lo:hi]


def test_fit_check_passes_on_fit_window_output(truth_fit):
    fit, t, y = truth_fit
    assert check_fit(fit, t, y, (TRUTH.t_c, TRUTH.m, TRUTH.omega), CONFIG.filters) == []


def test_fit_check_rejects_nudged_tc(truth_fit):
    fit, t, y = truth_fit
    nudged = copy.deepcopy(fit)
    nudged["params"]["t_c"] += 0.01 * (fit["window"]["t2"] - fit["window"]["t1"])
    errors = check_fit(nudged, t, y, (TRUTH.t_c, TRUTH.m, TRUTH.omega), CONFIG.filters)
    assert any("reported sse" in e for e in errors)


def test_fit_check_rejects_worse_than_truth_and_wrong_verdict(truth_fit):
    fit, t, y = truth_fit
    worse = copy.deepcopy(fit)
    worse["sse"] *= 10.0
    assert any("true parameters" in e for e in check_fit(worse, t, y, (TRUTH.t_c, TRUTH.m, TRUTH.omega), CONFIG.filters))
    flipped = dict(fit, qualified=not fit["qualified"])
    assert any("filters say" in e for e in check_fit(flipped, t, y, (TRUTH.t_c, TRUTH.m, TRUTH.omega), CONFIG.filters))


def test_report_is_the_same_on_one_and_two_workers(backtest_report):
    pooled = L.report(SERIES, replace(CONFIG, n_jobs=2)).to_dict()
    assert pooled == backtest_report


def run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["nowcast", "backtest", "replay"])
def test_workload_runs_tiny(workload):
    result = run_benchmark(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"setup_s", "dates_per_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_layers_and_overhead():
    result = run_benchmark("replay", 1)
    assert result["correct"]
    metrics = result["metrics"]
    for name in ("import.lpplscan_s", "calibration.fit_window_ms.n40", "scanner.fits_per_s.jobs2",
                 "scanner.alarm_index_us", "cli.scan_overhead_ms", "trace.overhead_pct"):
        assert math.isfinite(metrics[name]["value"]), name
    assert metrics["calibration.fits"]["value"] > metrics["calibration.qualified_fits"]["value"] > 0


def test_run_refuses_without_program_sources(tmp_path):
    (tmp_path / "benchmark").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "benchmark" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "benchmark" / "run.py"), "--workload", "replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_feasible_lengths_counts_start_and_points():
    t = [float(i) for i in range(100)]
    assert feasible_lengths(t, 99.0, (40.0, 99.0, 100.0), 30) == [40.0, 99.0]
    assert feasible_lengths(t, 35.0, (20.0, 30.0), 30) == [30.0]
