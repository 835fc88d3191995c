"""Correctness checks computed apart from lpplscan.

Every function here works on plain numbers, arrays and the program's JSON
forms (`DateRecord` as in `AlarmReport.to_dict()["dates"]`, `FitResult.to_dict()`),
and returns a list of error strings, empty when the output is correct. None of
them calls into lpplscan: the counts, quantiles, least squares and filters
are the benchmark's own.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import numpy as np

POSITIVE, NEGATIVE, NONE = "positive_bubble", "negative_bubble", "none"

# relative slack for float comparisons of quantities computed two ways
REL = 1e-7
# a filter value this close to its threshold may fall either way
EDGE = 1e-9


def feasible_lengths(times, t2: float, lengths, min_points: int) -> list[float]:
    """Window lengths whose window [t2 - L, t2] starts inside the data and holds min_points."""
    out = []
    for length in lengths:
        t1 = t2 - length
        if t1 < times[0]:
            continue
        if bisect.bisect_right(times, t2) - bisect.bisect_left(times, t1) >= min_points:
            out.append(length)
    return out


def nearest_rank(samples, q: float) -> float:
    """Nearest-rank quantile: the ceil(q n)-th smallest sample, with q read as the decimal it prints as."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(Fraction(repr(q)) * len(ordered)))
    return ordered[rank - 1]


def band_of(samples, band) -> tuple[float, float, float] | None:
    if not samples:
        return None
    return (nearest_rank(samples, band[0]), nearest_rank(samples, 0.5), nearest_rank(samples, band[1]))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-12)


def check_date(rec: dict, date: float, lengths, band, tc_horizon: float) -> list[str]:
    """One per-date result against the feasible window lengths counted from the series."""
    where = f"date {date}"
    errors = []
    if rec["date"] != date:
        return [f"{where}: record is for date {rec['date']}"]
    total, qualified = rec["total"], rec["qualified"]
    samples = rec["tc_samples"]
    if total != len(lengths):
        errors.append(f"{where}: total {total} != {len(lengths)} feasible windows")
    if not 0 <= qualified <= total:
        errors.append(f"{where}: qualified {qualified} outside [0, {total}]")
    alarm = qualified / total if total else 0.0
    if not _close(rec["alarm"], alarm):
        errors.append(f"{where}: alarm {rec['alarm']} != qualified/total {alarm}")
    pos, neg = rec["positive"], rec["negative"]
    if pos + neg != qualified:
        errors.append(f"{where}: positive {pos} + negative {neg} != qualified {qualified}")
    sign = POSITIVE if pos > neg else NEGATIVE if neg > pos else NONE
    if rec["sign"] != sign:
        errors.append(f"{where}: sign {rec['sign']} is not the majority {sign}")
    if len(samples) != qualified:
        errors.append(f"{where}: {len(samples)} tc samples for {qualified} qualified fits")
    expected = band_of(samples, band)
    got = rec["tc_band"]
    got = None if got is None else (got["low"], got["median"], got["high"])
    if got != expected:
        errors.append(f"{where}: tc band {got} != nearest-rank band {expected}")
    reach = tc_horizon * max(lengths, default=0.0)
    for tc in samples:
        if not date < tc <= date + reach * (1 + 1e-12):
            errors.append(f"{where}: tc sample {tc} outside ({date}, {date + reach}]")
    return errors


def group_by_end(ensemble) -> dict[float, tuple[int, list[float]]]:
    """Single pass over (t2, qualified, t_c) triples: t2 -> (fits, qualified t_c in order)."""
    groups: dict[float, tuple[int, list[float]]] = {}
    for t2, qualified, t_c in ensemble:
        count, samples = groups.get(t2, (0, []))
        if qualified:
            samples.append(t_c)
        groups[t2] = (count + 1, samples)
    return groups


def check_replay(results, groups, band) -> list[str]:
    """results: (date, alarm, band-or-None) per date, against group_by_end of the ensemble."""
    errors = []
    for date, alarm, got in results:
        count, samples = groups.get(date, (0, []))
        want_alarm = len(samples) / count if count else 0.0
        if not _close(alarm, want_alarm):
            errors.append(f"date {date}: alarm {alarm} != {want_alarm}")
        if got != band_of(samples, band):
            errors.append(f"date {date}: tc band {got} != {band_of(samples, band)}")
    return errors


def _design(t, t_c, m, omega):
    dt = t_c - t
    pw = dt**m
    angle = omega * np.log(dt)
    return np.column_stack([np.ones_like(dt), pw, pw * np.cos(angle), pw * np.sin(angle)])


def profiled_sse(t, y, t_c: float, m: float, omega: float) -> float:
    """Least SSE over (A, B, C1, C2) at fixed (t_c, m, omega), by lstsq."""
    X = _design(t, t_c, m, omega)
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    r = y - X @ beta
    return float(r @ r)


def line_sse(t, y) -> float:
    X = np.column_stack([np.ones_like(t), t - t[0]])
    r = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
    return float(r @ r)


def filter_verdict(p: dict, t1: float, t2: float, sse: float, sse_line: float, filters) -> bool | None:
    """The filters of FilterConfig evaluated here; None when a value sits on a threshold."""
    length = t2 - t1
    tests = [  # (value, lower, upper) with open bounds unless noted
        (p["m"], filters.m_range[0], filters.m_range[1]),
        (p["omega"], filters.omega_range[0], filters.omega_range[1]),
        (p["t_c"], t2, t2 + filters.tc_horizon * length),
    ]
    verdict = True
    for value, lo, hi in tests:
        scale = max(abs(lo), abs(hi), 1.0)
        if min(abs(value - lo), abs(value - hi)) <= EDGE * scale:
            return None
        verdict &= lo < value < hi
    if p["t_c"] > t2:
        n_osc = p["omega"] * math.log((p["t_c"] - t1) / (p["t_c"] - t2)) / (2 * math.pi)
        if abs(n_osc - filters.min_oscillations) <= EDGE * filters.min_oscillations:
            return None
        verdict &= n_osc >= filters.min_oscillations
    if filters.max_rmse is not None:
        return None  # the benchmark's workloads leave max_rmse unset
    if filters.min_line_gain is not None:
        limit = (1.0 - filters.min_line_gain) * sse_line
        if abs(sse - limit) <= EDGE * limit:
            return None
        verdict &= sse <= limit
    return verdict


def check_fit(fit: dict, t, y, truth: tuple[float, float, float], filters) -> list[str]:
    """A FitResult.to_dict() on the window data (t, y) whose search box holds truth = (t_c, m, omega).

    The fit must reach an SSE no larger than the profiled SSE at the truth,
    report the SSE of its own parameters, and be qualified exactly when the
    filters, evaluated here, pass it.
    """
    p = fit["params"]
    w = fit["window"]
    where = f"fit [{w['t1']}, {w['t2']}]"
    errors = []
    if not t[-1] < p["t_c"]:
        return [f"{where}: t_c {p['t_c']} not beyond the last observation {t[-1]}"]
    beta = np.array([p["A"], p["B"], p["C1"], p["C2"]])
    r = y - _design(t, p["t_c"], p["m"], p["omega"]) @ beta
    own = float(r @ r)
    if not _close(fit["sse"], own):
        errors.append(f"{where}: reported sse {fit['sse']} != residual sse {own} at its parameters")
    at_truth = profiled_sse(t, y, *truth)
    if fit["sse"] > at_truth * (1 + EDGE):
        errors.append(f"{where}: sse {fit['sse']} exceeds sse {at_truth} at the true parameters")
    verdict = filter_verdict(p, w["t1"], w["t2"], fit["sse"], line_sse(t, y), filters)
    if verdict is not None and verdict != fit["qualified"]:
        errors.append(f"{where}: qualified={fit['qualified']} but the filters say {verdict}")
    return errors
