"""Rolling ensemble scan: many (window length x end date) fits, aggregated
into a per-date alarm index and an empirical critical-time band.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .calibration import (
    NEGATIVE_BUBBLE,
    NO_SIGN,
    POSITIVE_BUBBLE,
    FilterConfig,
    FitResult,
    SearchConfig,
    _N_PARAMS,
    _fit_windows,
    fit_window,
)
from .errors import DomainError, FitError, WindowError
from .timeseries import DEFAULT_MIN_WINDOW_POINTS, PriceSeries, slice_window


def default_window_ladder() -> tuple[float, ...]:
    """Geometric ladder of window lengths: 60 days times 1.3 up to 750 days, ten lengths 60, 78, 101.4, ... 636.27."""
    lengths = []
    length = 60.0
    while length <= 750.0:
        lengths.append(round(length, 6))
        length *= 1.3
    return tuple(lengths)


def _check_band(band) -> None:
    """Raises DomainError unless band is two quantile levels with 0 < low < 0.5 < high < 1."""
    if len(band) != 2 or not 0 < band[0] < 0.5 < band[1] < 1:
        raise DomainError("band must be two levels with 0 < low < 0.5 < high < 1")


@dataclass(frozen=True, slots=True)
class ScanConfig:
    window_lengths: tuple[float, ...] = field(default_factory=default_window_ladder)
    end_every: int = 5  # evaluate every k-th observation, anchored at the last
    min_points: int = DEFAULT_MIN_WINDOW_POINTS
    search: SearchConfig = field(default_factory=SearchConfig)
    filters: FilterConfig = field(default_factory=FilterConfig)
    band: tuple[float, float] = (0.1, 0.9)
    seed: int = 0
    n_jobs: int = 1

    def __post_init__(self):
        if not self.window_lengths or not all(math.isfinite(v) and v > 0 for v in self.window_lengths):
            raise DomainError("window lengths must be nonempty, finite and positive")
        if self.end_every < 1:
            raise DomainError("end_every must be >= 1")
        if self.min_points < _N_PARAMS:
            raise DomainError(f"min_points must be >= {_N_PARAMS}, the number of LPPL parameters")
        if self.n_jobs < 1:
            raise DomainError("n_jobs must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        _check_band(self.band)


@dataclass(frozen=True, slots=True)
class ScanResult:
    fits: tuple[FitResult, ...]
    n_skipped: int
    end_dates: tuple[float, ...]


@dataclass(frozen=True, slots=True)
class TcBand:
    low: float
    median: float
    high: float


@dataclass(frozen=True, slots=True)
class DateRecord:
    date: float
    alarm: float
    qualified_count: int
    total_count: int
    positive_count: int
    negative_count: int
    sign: str
    tc_samples: tuple[float, ...]
    tc_band: TcBand | None  # None = no qualified fit, no signal


@dataclass(frozen=True, slots=True)
class AlarmReport:
    label: str
    records: tuple[DateRecord, ...]
    n_fits: int
    n_skipped: int
    band: tuple[float, float]  # the tc_band quantiles, which name the CSV's band columns

    @property
    def max_alarm(self) -> float:
        return max((r.alarm for r in self.records), default=0.0)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "n_fits": self.n_fits,
            "n_skipped": self.n_skipped,
            "max_alarm": self.max_alarm,
            "dates": [
                {
                    "date": r.date,
                    "alarm": r.alarm,
                    "qualified": r.qualified_count,
                    "total": r.total_count,
                    "positive": r.positive_count,
                    "negative": r.negative_count,
                    "sign": r.sign,
                    "tc_samples": list(r.tc_samples),
                    "tc_band": None if r.tc_band is None else asdict(r.tc_band),
                }
                for r in self.records
            ],
        }

    def to_csv_rows(self) -> list[list[str]]:
        """Flat rows under header date,alarm,qualified,total,tc_q10,tc_median,tc_q90,sign (for band 0.1, 0.9)."""
        low, high = (f"tc_q{100 * q:.12g}" for q in self.band)
        rows = [["date", "alarm", "qualified", "total", low, "tc_median", high, "sign"]]
        for r in self.records:
            band = ["", "", ""]
            if r.tc_band is not None:
                band = [
                    format(r.tc_band.low, ".12g"),
                    format(r.tc_band.median, ".12g"),
                    format(r.tc_band.high, ".12g"),
                ]
            rows.append(
                [
                    format(r.date, ".12g"),
                    format(r.alarm, ".12g"),
                    str(r.qualified_count),
                    str(r.total_count),
                    *band,
                    r.sign,
                ]
            )
        return rows


def _task_seed(base_seed: int, wi: int) -> int:
    """The seed of the wi-th window length, from the entropy [base_seed, wi, 0]; the 0 keeps earlier versions' seeds."""
    return int(np.random.SeedSequence([base_seed, wi, 0]).generate_state(1)[0])


def _fit_pooled(series: PriceSeries, windows, seeds, config: ScanConfig) -> list[FitResult]:
    """Each window's fit, from k = min(n_jobs, available CPUs, windows) processes: this one and k - 1 workers.

    The windows, sorted largest n_points first, are dealt round-robin into k
    shares, so each process fits about 1/k of every equal-n group in
    lockstep. The first k - 1 shares go to forked workers, each with the
    series inside its share; this process fits the last share while they
    run. At k = 1 no worker starts. Raises the FitError of the first failing
    window in the given order.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    k = min(config.n_jobs, cpus, len(windows))
    if k == 1:
        fits = _fit_windows(series, windows, config.search, config.filters, seeds)
    else:
        from concurrent.futures import ProcessPoolExecutor  # kept out of `import lpplscan`

        order = sorted(range(len(windows)), key=lambda i: windows[i].n_points, reverse=True)
        shares = [order[j::k] for j in range(k)]
        args = [(series, [windows[i] for i in share], config.search, config.filters, [seeds[i] for i in share])
                for share in shares]
        with ProcessPoolExecutor(k - 1) as pool:
            futures = [pool.submit(_fit_windows, *a) for a in args[:-1]]
            own = _fit_windows(*args[-1])
            results = [future.result() for future in futures] + [own]
        fits = [None] * len(windows)
        for share, result in zip(shares, results):
            for i, fit in zip(share, result):
                fits[i] = fit
    for fit in fits:
        if isinstance(fit, FitError):
            raise fit
    return fits


def scan(series: PriceSeries, config: ScanConfig = ScanConfig()) -> ScanResult:
    """One fit per feasible (window length, end date) pair.

    The end dates are every end_every-th observation counted back from the
    last, so the newest date is always scanned. Pairs whose window would start
    before the data or hold fewer than min_points observations are skipped;
    n_skipped is the grid size minus the windows fitted. Deterministic given
    the seed regardless of n_jobs: each window length owns one seed, derived
    from the scan's seed and the length's position in window_lengths, so
    the windows of one length get the same screen points, and those on one
    time grid share one screen where they are fitted together (each process
    of a pooled scan). A failed fit raises the FitError of the first
    failing pair in grid order, as the serial scan meets it.
    """
    end_dates = tuple(series.times[(len(series) - 1) % config.end_every :: config.end_every].tolist())

    # one seed per window length, so the windows of a length share their screen points
    length_seeds = [_task_seed(config.seed, wi) for wi in range(len(config.window_lengths))]
    windows, seeds = [], []
    for t2 in end_dates:
        for wi, length in enumerate(config.window_lengths):
            if t2 - length < series.t_start:
                continue
            try:
                windows.append(slice_window(series, t2 - length, t2, min_points=config.min_points))
            except WindowError:
                continue
            seeds.append(length_seeds[wi])
    n_skipped = len(end_dates) * len(config.window_lengths) - len(windows)

    if not windows:
        raise DomainError("no feasible (window length, end date) pair for this series")

    if config.n_jobs > 1:
        fits = _fit_pooled(series, windows, seeds, config)
    else:
        fits = [fit_window(series, w, config.search, config.filters, s) for w, s in zip(windows, seeds)]

    return ScanResult(fits=tuple(fits), n_skipped=n_skipped, end_dates=end_dates)


def _fits_at(ensemble, date: float) -> list[FitResult]:
    return [f for f in ensemble if f.window.t2 == date]


def alarm_index(ensemble, date: float) -> float:
    """Fraction of qualified fits among fits whose window ends at `date`."""
    fits = _fits_at(ensemble, date)
    if not fits:
        return 0.0
    return sum(f.qualified for f in fits) / len(fits)


def nearest_rank_quantile(samples, q: float) -> float:
    """Nearest-rank empirical quantile of samples: the ceil(q n)-th smallest, with q read as the decimal it prints as."""
    from decimal import Decimal  # kept out of `import lpplscan`, which it would slow by 1-3 ms
    ordered = sorted(samples)
    if not ordered:
        raise DomainError("quantile of an empty sample")
    if not 0 <= q <= 1:
        raise DomainError(f"quantile level q={q} must lie in [0, 1]")
    num, den = Decimal(repr(float(q))).as_integer_ratio()
    rank = max(1, -(-num * len(ordered) // den))
    return ordered[rank - 1]


def tc_distribution(
    ensemble, date: float, band: tuple[float, float] = (0.1, 0.9)
) -> TcBand | None:
    """Empirical (low, median, high) quantiles of qualified critical times at `date`.

    Returns None ("no signal") when no qualified fit ends at the date. Raises
    DomainError unless band is two levels with 0 < low < 0.5 < high < 1.
    """
    _check_band(band)
    samples = [f.params.t_c for f in _fits_at(ensemble, date) if f.qualified]
    if not samples:
        return None
    return TcBand(
        low=nearest_rank_quantile(samples, band[0]),
        median=nearest_rank_quantile(samples, 0.5),
        high=nearest_rank_quantile(samples, band[1]),
    )


def report(series: PriceSeries, config: ScanConfig = ScanConfig()) -> AlarmReport:
    """Full scan plus per-date aggregation into one serializable report."""
    result = scan(series, config)
    by_date = {date: [] for date in result.end_dates}
    for f in result.fits:
        by_date[f.window.t2].append(f)
    records = []
    for date, fits in by_date.items():
        qualified = [f for f in fits if f.qualified]
        pos = sum(f.sign == POSITIVE_BUBBLE for f in qualified)
        neg = sum(f.sign == NEGATIVE_BUBBLE for f in qualified)
        if pos > neg:
            sign = POSITIVE_BUBBLE
        elif neg > pos:
            sign = NEGATIVE_BUBBLE
        else:
            sign = NO_SIGN
        records.append(
            DateRecord(
                date=date,
                alarm=alarm_index(fits, date),
                qualified_count=len(qualified),
                total_count=len(fits),
                positive_count=pos,
                negative_count=neg,
                sign=sign,
                tc_samples=tuple(f.params.t_c for f in qualified),
                tc_band=tc_distribution(fits, date, config.band),
            )
        )
    return AlarmReport(
        label=series.label,
        records=tuple(records),
        n_fits=len(result.fits),
        n_skipped=result.n_skipped,
        band=config.band,
    )
