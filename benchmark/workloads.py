"""The benchmark's workloads: seeded inputs, set-up, timed rounds, checks and layer metrics.

run.py starts every measurement as a fresh interpreter:

    python3 benchmark/workloads.py WORKLOAD --seed N --seconds S --mode MODE --t0 T --out DIR [--tiny]

`--t0` is the parent's time.monotonic() just before the start, so set-up time
includes interpreter start and `import lpplscan`. MODE `setup` stops where
the timed region would start; `run` measures untraced and checks every
output; `trace` measures untraced, then traced, and adds the per-layer
metrics. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

from spans import Tracer

# numpy and checks.py (which needs numpy) are imported only after the timed
# `import lpplscan`, so that import.lpplscan_s includes numpy's import

EPOCH = date(1970, 1, 1)
# first day of the replay history, 2012-01-02
REPLAY_START = float((date(2012, 1, 2) - EPOCH).days)
# fit checks per run: windows sampled per workload
NOWCAST_FIT_CHECKS = 2
BACKTEST_FIT_CHECKS = 6
# per-length samples needed before a p90 is a tail and not a single point
P90_SAMPLES = 40
PROBE_SIZES = (40, 200, 750)


def jobs_available() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def read_prices(path: Path, date_column: str):
    """(times, prices) parsed here from a CSV the benchmark wrote: day numbers or ISO dates."""
    times, prices = [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            cell = row[date_column]
            t = float((date.fromisoformat(cell) - EPOCH).days) if "-" in cell[1:] else float(cell)
            times.append(t)
            prices.append(float(row["price"]))
    return times, prices


class Workload:
    """Shared plumbing: a tracer, an output directory and the rounds run so far."""

    def __init__(self, L, seed: int, out: Path, tracer: Tracer, tiny: bool):
        import numpy as np

        self.L, self.np, self.seed, self.tracer, self.tiny = L, np, seed, tracer, tiny
        self.out = out
        out.mkdir(parents=True, exist_ok=True)
        self.rounds = 0

    def generate(self, spec):
        with self.tracer.span("synth.generate"):
            return self.L.synth.generate(spec).series

    def save(self, series, path: Path, sink=None) -> None:
        with open(path, "w", newline="") if sink is None else contextlib.nullcontext(sink) as fh:
            with self.tracer.span("timeseries.save_csv", rows=len(series)):
                self.L.timeseries.save_csv(series, fh)

    def lppl(self, rng, n: int, tc_ahead: tuple[float, float]):
        """An LPPL bubble over t = 0..n-1 whose log-price rises by about 1 and whose t_c lies tc_ahead past the end."""
        t_c = n - 1 + rng.uniform(*tc_ahead)
        m = rng.uniform(0.35, 0.65)
        rise = rng.uniform(0.8, 1.2)
        B = -rise / (t_c**m - (t_c - n + 1) ** m)
        return self.L.LpplParams(
            t_c=t_c,
            m=m,
            omega=rng.uniform(6.0, 9.0),
            phi=rng.uniform(0.0, 2 * math.pi),
            A=math.log(100.0) - B * t_c**m,
            B=B,
            C=abs(B) * rng.uniform(0.05, 0.1),
        )

    def spec(self, rng, regime, n: int, t_start: float = 0.0):
        return self.L.SynthSpec(
            regime=regime, t_start=t_start, t_end=t_start + n - 1, step=1.0,
            noise_sigma=0.01, seed=int(rng.integers(2**31)),
        )

    def run_round(self, jobs: int | None = None) -> tuple[int, int, dict]:
        """One round: (per-date results, failed ones, counts for the round span)."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def fit_checks(self, picks, search, filters) -> list[str]:
        """fit_window on sampled windows (series, t, y, t2, length, truth) whose search box holds the truth."""
        from checks import check_fit

        errors = []
        for series, t, y, t2, length, truth in picks:
            window = self.L.timeseries.slice_window(series, t2 - length, t2)
            fit = self.L.calibration.fit_window(series, window, search, filters, seed=self.seed)
            lo, hi = window.start, window.stop
            errors += check_fit(fit.to_dict(), t[lo:hi], y[lo:hi], truth, filters)
        return errors

    def sample(self, candidates: list, k: int) -> list:
        rng = self.np.random.default_rng([9, self.seed])
        return [candidates[i] for i in sorted(rng.permutation(len(candidates))[:k])]


class Nowcast(Workload):
    """Today's result per asset of a basket, through `lpplscan scan` run in-process."""

    def __init__(self, L, seed, out, tracer, tiny=False, basket=("lppl_a", "lppl_b", "exp", "logistic")):
        super().__init__(L, seed, out, tracer, tiny)
        import lpplscan.cli  # noqa: F401  (the package does not import its CLI module)

        rng = self.np.random.default_rng([1, seed])
        self.n = n = 300 if tiny else 1000
        regimes = {
            "lppl_a": self.lppl(rng, n, (15.0, 60.0)),
            "lppl_b": self.lppl(rng, n, (15.0, 60.0)),
            "exp": L.GrowthSpec("exponential", rate=rng.uniform(5e-4, 1e-3), p0=100.0),
            "logistic": L.GrowthSpec("logistic", rate=rng.uniform(4e-3, 8e-3), p0=50.0, capacity=200.0),
        }
        self.assets = []
        for name in basket:
            path = out / f"{name}.csv"
            self.save(self.generate(self.spec(rng, regimes[name], n)), path)
            truth = regimes[name] if isinstance(regimes[name], L.LpplParams) else None
            self.assets.append((name, path, truth))
        # the CLI's defaults: the 60 -> 636 day ladder and the default search
        self.config = L.ScanConfig(window_lengths=(60.0, 90.0)) if tiny else L.ScanConfig()
        self.search = L.SearchConfig(n_starts=4, max_iter=200) if tiny else L.SearchConfig()
        self.extra = ["--windows", "60,90", "--filters", "n_starts=4", "max_iter=200"] if tiny else []
        self.stdout: list[str] = []
        # warm-up: one small scan through the same entry point
        self.cli(self.assets[0][1], out / "warmup", ["--windows", "60", "--filters", "n_starts=2"])

    def cli(self, path: Path, outdir: Path, extra) -> int:
        argv = ["scan", "--input", str(path), "--date-column", "time", "--every", str(self.n),
                "--jobs", "1", "--out", str(outdir), *extra]
        buf = io.StringIO()
        with self.tracer.span("cli.main"), contextlib.redirect_stdout(buf):
            rc = self.L.cli.main(argv)
        self.stdout.append(buf.getvalue())
        return rc

    def run_round(self, jobs=None):
        outdir = self.out / f"round{self.rounds}"
        self.rounds += 1
        failed = sum(self.cli(path, outdir, self.extra) != 0 for _, path, _ in self.assets)
        return len(self.assets), failed, {}

    def report(self, name: str, k: int = 0) -> str:
        return (self.out / f"round{k}" / f"{name}_report.json").read_text()

    def check(self) -> list[str]:
        from checks import check_date, feasible_lengths

        errors = []
        cfg, filters = self.config, self.config.filters
        candidates = []
        for name, path, truth in self.assets:
            t, p = read_prices(path, "time")
            lengths = feasible_lengths(t, t[-1], cfg.window_lengths, cfg.min_points)
            rep = json.loads(self.report(name))
            if len(rep["dates"]) != 1:
                errors.append(f"{name}: {len(rep['dates'])} dates in a nowcast")
                continue
            errors += [f"{name}: {e}" for e in check_date(rep["dates"][0], t[-1], lengths, cfg.band, filters.tc_horizon)]
            if rep["n_fits"] != rep["dates"][0]["total"]:
                errors.append(f"{name}: n_fits {rep['n_fits']} != total")
            errors += [f"{name}: round {k} report differs from round 0"
                       for k in range(1, self.rounds) if self.report(name, k) != self.report(name)]
            if truth is not None:
                with open(path, newline="") as fh:  # the series exactly as the CLI read it
                    series = self.L.timeseries.load_csv(fh, self.L.CsvOptions(date_column="time")).series
                tt, y = self.np.array(t), self.np.log(p)
                candidates += [(series, tt, y, t[-1], length, (truth.t_c, truth.m, truth.omega))
                               for length in lengths if truth.t_c - t[-1] <= filters.tc_horizon * length]
        for line in self.stdout:
            try:
                json.loads(line)
            except ValueError:
                errors.append(f"the CLI's summary is not one JSON object: {line!r}")
        return errors + self.fit_checks(self.sample(candidates, NOWCAST_FIT_CHECKS), self.search, filters)

    def counts(self) -> dict:
        dates = [json.loads(self.report(name))["dates"][0] for name, _, _ in self.assets]
        return {"fits": sum(d["total"] for d in dates), "qualified": sum(d["qualified"] for d in dates)}


class Backtest(Workload):
    """`scanner.report` over past end dates of one LPPL series, on the scanner's process pool."""

    def __init__(self, L, seed, out, tracer, tiny=False):
        super().__init__(L, seed, out, tracer, tiny)
        rng = self.np.random.default_rng([2, seed])
        n = 120 if tiny else 250
        self.truth = self.lppl(rng, n, (5.0, 20.0))
        self.csv = out / "history.csv"
        self.save(self.generate(self.spec(rng, self.truth, n)), self.csv)
        with open(self.csv, newline="") as fh, self.tracer.span("timeseries.load_csv", rows=n):
            self.series = L.timeseries.load_csv(fh, L.CsvOptions(date_column="time")).series
        self.config = L.ScanConfig(
            window_lengths=(40.0, 60.0) if tiny else (40.0, 90.0, 150.0),
            end_every=20 if tiny else 10,
            search=L.SearchConfig(n_starts=4, max_iter=200) if tiny else L.SearchConfig(n_starts=6, max_iter=250),
            n_jobs=min(2, jobs_available()),
        )
        self.reports = []
        # warm-up, which also starts the worker pool once
        L.scanner.report(self.series, replace(
            self.config, window_lengths=(40.0,), search=L.SearchConfig(n_starts=1, max_iter=20)))

    def end_dates(self, t) -> list[float]:
        return sorted(t[len(t) - 1 :: -self.config.end_every])

    def run_round(self, jobs=None):
        config = self.config if jobs is None else replace(self.config, n_jobs=jobs)
        self.rounds += 1
        try:
            rep = self.L.scanner.report(self.series, config)
        except self.L.DomainError:
            n = len(self.end_dates(self.series.times))
            return n, n, {}
        self.reports.append(rep)
        return len(rep.records), 0, {"fits": rep.n_fits, "jobs": config.n_jobs}

    def check(self) -> list[str]:
        from checks import check_date, feasible_lengths

        errors = []
        t, p = read_prices(self.csv, "time")
        cfg, filters = self.config, self.config.filters
        dates = self.end_dates(t)
        first = self.reports[0].to_dict()
        if [r["date"] for r in first["dates"]] != dates:
            errors.append("report dates differ from every k-th date anchored at the last")
        else:
            for rec, d in zip(first["dates"], dates):
                lengths = feasible_lengths(t, d, cfg.window_lengths, cfg.min_points)
                errors += check_date(rec, d, lengths, cfg.band, filters.tc_horizon)
        errors += [f"round {k} report differs from round 0"
                   for k, rep in enumerate(self.reports) if rep.to_dict() != first]
        tt, y, tr = self.np.array(t), self.np.log(p), self.truth
        candidates = [(self.series, tt, y, d, length, (tr.t_c, tr.m, tr.omega)) for d in dates
                      for length in feasible_lengths(t, d, cfg.window_lengths, cfg.min_points)
                      if d < tr.t_c <= d + filters.tc_horizon * length]
        return errors + self.fit_checks(self.sample(candidates, BACKTEST_FIT_CHECKS), cfg.search, filters)

    def counts(self) -> dict:
        rep = self.reports[0]
        return {"fits": rep.n_fits, "qualified": sum(r.qualified_count for r in rep.records)}


class Replay(Workload):
    """Re-aggregating a stored ensemble over the end dates of an ISO-dated history."""

    def __init__(self, L, seed, out, tracer, tiny=False):
        super().__init__(L, seed, out, tracer, tiny)
        np = self.np
        rng = np.random.default_rng([3, seed])
        n_days, n_dates = (400, 100) if tiny else (2600, 2000)
        self.lengths = (60.0, 120.0, 240.0) if tiny else L.scanner.ScanConfig().window_lengths
        regime = L.GrowthSpec("exponential", rate=rng.uniform(2e-4, 6e-4), p0=100.0)
        series = self.generate(self.spec(rng, regime, n_days, REPLAY_START))
        # save_csv writes day numbers; the history is stored with ISO dates
        buf = io.StringIO()
        self.save(series, None, buf)
        self.csv = out / "history.csv"
        with open(self.csv, "w", newline="") as fh:
            fh.write("date,price\n")
            for row in buf.getvalue().splitlines()[1:]:
                day, price, _ = row.split(",")
                fh.write(f"{(EPOCH + timedelta(days=int(float(day)))).isoformat()},{price}\n")
        self.options = L.CsvOptions(date_column="date", price_column="price")
        with open(self.csv, newline="") as fh:
            series = L.timeseries.load_csv(fh, self.options).series
        self.filters = L.FilterConfig()
        self.band = L.ScanConfig().band
        self.dates = [float(d) for d in series.times[-n_dates:]]
        self.pairs = [(d, length) for d in self.dates for length in self.lengths if d - length >= series.t_start]
        self.ensemble = self.make_ensemble(rng, series)
        self.results = []
        self.windows = None
        # warm-up: each call of a round once
        d, length = self.pairs[-1]
        with open(self.csv, newline="") as fh:
            L.timeseries.slice_window(L.timeseries.load_csv(fh, self.options).series, d - length, d)
        L.scanner.tc_distribution(self.ensemble, self.dates[-1], self.band)
        L.scanner.alarm_index(self.ensemble, self.dates[-1])

    def make_ensemble(self, rng, series):
        """One fit per feasible (date, length) from seeded parameters, passed through qualify."""
        L, np, k = self.L, self.np, len(self.pairs)
        u = rng.uniform(0.0, 0.6, k)
        m = rng.uniform(0.0, 1.05, k)
        omega = rng.uniform(1.5, 16.0, k)
        phi = rng.uniform(0.0, 2 * math.pi, k)
        B = rng.uniform(0.01, 0.1, k) * np.where(rng.random(k) < 0.7, -1.0, 1.0)
        C = rng.uniform(0.0, 0.05, k)
        sse_scale = rng.uniform(0.5, 1.5, k)
        line_ratio = rng.uniform(1.0, 2.5, k)
        ensemble = []
        for i, (d, length) in enumerate(self.pairs):
            window = L.timeseries.slice_window(series, d - length, d)
            n = window.n_points
            sse = n * 1e-4 * sse_scale[i]
            params = L.LpplParams(t_c=d + u[i] * length, m=m[i], omega=omega[i], phi=phi[i],
                                  A=4.6, B=B[i], C=C[i])
            fit = L.FitResult(params=params, window=window, sse=sse, rmse=math.sqrt(sse / n), n_points=n,
                              qualified=False, sign=L.calibration.sign_of(B[i]), sse_line=sse * line_ratio[i])
            verdict = L.qualify(fit, self.filters)
            ensemble.append(replace(fit, qualified=verdict.qualified, failures=verdict.failures,
                                    checks=verdict.checks))
        return ensemble

    def run_round(self, jobs=None):
        L = self.L
        self.rounds += 1
        with open(self.csv, newline="") as fh:
            series = L.timeseries.load_csv(fh, self.options).series
        self.windows = [L.timeseries.slice_window(series, d - length, d) for d, length in self.pairs]
        failed = 0
        results = []
        for d in self.dates:
            try:
                alarm = L.scanner.alarm_index(self.ensemble, d)
                band = L.scanner.tc_distribution(self.ensemble, d, self.band)
            except L.DomainError:
                failed += 1
                continue
            results.append((d, alarm, None if band is None else (band.low, band.median, band.high)))
        self.results.append(results)
        return len(self.dates), failed, {}

    def check(self) -> list[str]:
        from checks import check_replay, feasible_lengths, filter_verdict, group_by_end

        errors = []
        t, _ = read_prices(self.csv, "date")
        if self.dates != t[-len(self.dates):]:
            errors.append("replay dates differ from the last dates of the history")
        if [(w.start, w.stop) for w in self.windows] != [(f.window.start, f.window.stop) for f in self.ensemble]:
            errors.append("slice_window on the reloaded history gives other windows than the ensemble's")
        triples = [(f.window.t2, f.qualified, f.params.t_c) for f in self.ensemble]
        groups = group_by_end(triples)
        min_points = self.L.ScanConfig().min_points
        for d in self.dates:
            count, want = groups.get(d, (0, []))[0], len(feasible_lengths(t, d, self.lengths, min_points))
            if count != want:
                errors.append(f"date {d}: {count} fits for {want} feasible windows")
        for f in self.ensemble:
            verdict = filter_verdict(f.params.as_dict(), f.window.t1, f.window.t2, f.sse, f.sse_line, self.filters)
            if verdict is not None and verdict != f.qualified:
                errors.append(f"fit [{f.window.t1}, {f.window.t2}]: qualify says {f.qualified}, filters say {verdict}")
        for k, results in enumerate(self.results):
            errors += [f"round {k}: {e}" for e in check_replay(results, groups, self.band)]
        return errors

    def counts(self) -> dict:
        return {"fits": len(self.ensemble), "qualified": sum(f.qualified for f in self.ensemble)}


WORKLOADS = {"nowcast": Nowcast, "backtest": Backtest, "replay": Replay}


def timed(workload: Workload, seconds: float, jobs: int | None = None, until=None) -> dict:
    """Whole rounds while their total stays nearest `seconds`, and until() holds; the median round rate."""
    rates, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        with workload.tracer.span("round") as attrs:
            r0 = time.perf_counter()
            n, bad, info = workload.run_round(jobs)
            rates.append(n / (time.perf_counter() - r0))
            attrs.update(info, dates=n)
        attempted += n
        failed += bad
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / len(rates)) >= seconds and (until is None or until()):
            break
    return {"dates_per_s": statistics.median(rates), "attempted": attempted, "failed": failed, "rounds": len(rates)}


# ---------------------------------------------------------------- tracing

SETUP_LAYERS = ("synth.generate_ms", "timeseries.save_csv_rows_per_s", "timeseries.load_csv_rows_per_s")


def wrap_layers(tracer: Tracer, L) -> None:
    """Spans around the public names the layers call each other through."""
    rows = lambda args, result: {"rows": len(result.series)}  # noqa: E731
    length = lambda args, result: {"len": round(args[1].length)}  # noqa: E731
    for module, attr, name, describe in (
        (L.scanner, "report", "scanner.report", None),
        (L.scanner, "scan", "scanner.scan", None),
        (L.scanner, "fit_window", "calibration.fit_window", length),
        (L.scanner, "slice_window", "timeseries.slice_window", None),
        (L.scanner, "alarm_index", "scanner.alarm_index", None),
        (L.scanner, "tc_distribution", "scanner.tc_distribution", None),
        (L.timeseries, "slice_window", "timeseries.slice_window", None),
        (L.timeseries, "load_csv", "timeseries.load_csv", rows),
        (L.calibration, "solve_linear", "calibration.solve_linear", None),
        (L.calibration, "lppl_basis", "model.lppl_basis", None),
        (L.calibration, "qualify", "calibration.qualify", None),
    ):
        tracer.wrap(module, attr, name, describe)


def region_metrics(tracer: Tracer, region: str) -> dict:
    """The per-layer metrics that the spans of one region hold."""
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[4] == region]
    dur = lambda s: s[2] - s[1]  # noqa: E731
    by_name: dict[str, list] = {}
    for i, s in spans:
        by_name.setdefault(s[0], []).append((i, s))
    out = {}

    def median_of(name, key, scale):
        if name in by_name:
            out[key] = statistics.median(dur(s) for _, s in by_name[name]) * scale

    def rows_per_s(name, key):
        if name in by_name:
            out[key] = sum(s[5]["rows"] for _, s in by_name[name]) / sum(dur(s) for _, s in by_name[name])

    median_of("synth.generate", "synth.generate_ms", 1e3)
    rows_per_s("timeseries.save_csv", "timeseries.save_csv_rows_per_s")
    rows_per_s("timeseries.load_csv", "timeseries.load_csv_rows_per_s")
    median_of("timeseries.slice_window", "timeseries.slice_window_us", 1e6)
    median_of("scanner.alarm_index", "scanner.alarm_index_us", 1e6)
    median_of("scanner.tc_distribution", "scanner.tc_distribution_us", 1e6)
    per_length: dict[int, list[float]] = {}
    for _, s in by_name.get("calibration.fit_window", []):
        per_length.setdefault(s[5]["len"], []).append(dur(s) * 1e3)
    for n, ms in per_length.items():
        out[f"calibration.fit_window_ms.n{n}"] = statistics.median(ms)
        if len(ms) >= P90_SAMPLES:
            out[f"calibration.fit_window_ms.p90.n{n}"] = statistics.quantiles(ms, n=10)[-1]
    if "cli.main" in by_name:
        in_report = {}
        for _, s in by_name.get("scanner.report", []):
            in_report[s[3]] = in_report.get(s[3], 0.0) + dur(s)
        out["cli.scan_overhead_ms"] = statistics.median(
            (dur(s) - in_report.get(i, 0.0)) * 1e3 for i, s in by_name["cli.main"])

    rounds = dict(by_name.get("round", []))
    if not rounds:
        return out
    root, per_round = {}, {i: {"scan": 0.0, "report": 0.0, "direct": 0.0} for i in rounds}
    for i, s in spans:  # parents precede children, so one pass finds each span's round
        root[i] = i if i in rounds else root.get(s[3], -1)
        r = root[i]
        if r < 0 or r == i:
            continue
        if s[0] == "scanner.scan":
            per_round[r]["scan"] += dur(s)
        elif s[0] == "scanner.report":
            per_round[r]["report"] += dur(s)
        elif s[0] in ("scanner.alarm_index", "scanner.tc_distribution") and s[3] == r:
            per_round[r]["direct"] += dur(s)
    out["scanner.aggregate_s"] = statistics.median(v["report"] - v["scan"] + v["direct"] for v in per_round.values())
    if "scanner.scan" in by_name:
        out["scanner.scan_s"] = statistics.median(v["scan"] for v in per_round.values())
        for jobs in {s[5]["jobs"] for s in rounds.values() if "fits" in s[5]}:
            chosen = [i for i, s in rounds.items() if s[5].get("jobs") == jobs]
            out[f"scanner.fits_per_s.jobs{jobs}"] = (
                sum(rounds[i][5]["fits"] for i in chosen) / sum(per_round[i]["scan"] for i in chosen))
    return out


def probe_kernels(L) -> dict:
    """lppl_basis and solve_linear per call at fixed sizes, called directly."""
    import numpy as np

    out = {}
    for n in PROBE_SIZES:
        t = np.arange(float(n))
        t_c, m, omega = n - 1 + 0.25 * n, 0.5, 7.0
        series = L.PriceSeries(t, np.exp(4.6 - 0.05 * (t_c - t) ** m))
        window = L.slice_window(series, 0.0, n - 1.0)
        reps = max(20, 20000 // n)
        for key, call in (
            (f"model.lppl_basis_us.n{n}", lambda: L.model.lppl_basis(t_c, m, omega, t)),
            (f"calibration.solve_linear_us.n{n}", lambda: L.calibration.solve_linear(series, window, t_c, m, omega)),
        ):
            batches = []
            for _ in range(5):
                r0 = time.perf_counter()
                for _ in range(reps):
                    call()
                batches.append((time.perf_counter() - r0) / reps * 1e6)
            out[key] = statistics.median(batches)
    return out


def dispatch_metrics(pool: "Backtest", pooled_region: str) -> dict:
    """Fit rates of the backtest grid on the pool (a region already traced) and on one worker.

    The one-worker region also gives the per-length fit times, since the pool's
    fits run in worker processes whose spans stay there.
    """
    tracer = pool.tracer
    region = tracer.region = pooled_region + ".jobs1"
    need = [round(length) for length in pool.config.window_lengths]

    def enough():
        counts = {}
        for s in tracer.select("calibration.fit_window", region):
            counts[s[5]["len"]] = counts.get(s[5]["len"], 0) + 1
        return pool.tiny or all(counts.get(n, 0) >= P90_SAMPLES for n in need)

    timed(pool, 0.0, jobs=1, until=enough)
    single = region_metrics(tracer, region)
    jobs = pool.config.n_jobs
    out = {k: v for k, v in single.items() if k.startswith("calibration.fit_window_ms")}
    out["scanner.fits_per_s.jobs1"] = single["scanner.fits_per_s.jobs1"]
    out["scanner.fits_per_s.jobs2"] = region_metrics(tracer, pooled_region)[f"scanner.fits_per_s.jobs{jobs}"]
    out["scanner.parallel_efficiency"] = out["scanner.fits_per_s.jobs2"] / (jobs * out["scanner.fits_per_s.jobs1"])
    return out


def region_seconds(args) -> float:
    """A traced run splits its time between the untraced and the traced region."""
    return args.seconds / 2 if args.mode == "trace" else args.seconds


def trace_layers(L, work: Workload, args, untraced: dict) -> tuple[dict, dict]:
    """The traced region, then regions of the other workloads' grids for layers this one does not call.

    Returns the per-layer metrics and the traced region's counts. Metrics of
    the workload's own regions take precedence over the filling regions.
    """
    tracer = work.tracer
    tracer.enabled = True
    wrap_layers(tracer, L)
    try:
        tracer.region = "traced"
        traced = timed(work, region_seconds(args))
        metrics = {k: v for k, v in region_metrics(tracer, "setup").items() if k in SETUP_LAYERS}
        metrics.update(region_metrics(tracer, "traced"))
        if isinstance(work, Backtest):
            pool, pooled_region = work, "traced"
        else:
            tracer.region = "fill.setup"
            pool = Backtest(L, args.seed, args.out / "fill-backtest", tracer, args.tiny)
            pooled_region = tracer.region = "fill.backtest"
            timed(pool, 0.0)
        for key, value in dispatch_metrics(pool, pooled_region).items():
            if key.startswith("calibration."):
                metrics.setdefault(key, value)
            else:
                metrics[key] = value
        for key, value in region_metrics(tracer, pooled_region).items():
            metrics.setdefault(key, value)
        if not isinstance(work, Nowcast):
            tracer.region = "fill.setup"
            nowcast = Nowcast(L, args.seed, args.out / "fill-nowcast", tracer, args.tiny, basket=("lppl_a",))
            tracer.region = "fill.nowcast"
            timed(nowcast, 0.0)
            for key, value in region_metrics(tracer, "fill.nowcast").items():
                metrics.setdefault(key, value)
    finally:
        tracer.unwrap_all()
        tracer.enabled = False
    metrics.update(probe_kernels(L))
    counts = work.counts()
    metrics["calibration.fits"] = counts["fits"]
    metrics["calibration.qualified_fits"] = counts["qualified"]
    metrics["trace.overhead_pct"] = (untraced["dates_per_s"] / traced["dates_per_s"] - 1.0) * 100.0
    tracer.dump(args.out / "spans.json")
    return metrics, traced


# ---------------------------------------------------------------- entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke tests")
    args = parser.parse_args(argv)

    tracer = Tracer(enabled=args.mode == "trace")
    tracer.region = "setup"
    r0 = time.perf_counter()
    with tracer.span("import.lpplscan"):
        import lpplscan as L
    import_s = time.perf_counter() - r0
    work = WORKLOADS[args.workload](L, args.seed, args.out, tracer, args.tiny)
    tracer.enabled = False
    result = {"setup_s": time.monotonic() - args.t0, "import_s": import_s}
    if args.mode != "setup":
        tracer.region = "untraced"
        result.update(timed(work, region_seconds(args)))
        result["self_hwm_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.mode == "trace":
            result["layers"], traced = trace_layers(L, work, args, result)
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
        errors = work.check()
        result["correct"] = not errors
        result["errors"] = errors[:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
