"""Price series ingestion, validation, and windowing.

Time is a real-valued day count. ISO-8601 dates are mapped to days since
1970-01-01; raw numeric timestamps are passed through unchanged, which lets
callers work in trading time instead of calendar time if they prefer.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .errors import CsvFormatError, DomainError, WindowError

EPOCH = date(1970, 1, 1)

DEFAULT_MIN_WINDOW_POINTS = 30


def parse_time(text: str) -> float:
    """Parse a timestamp cell: ISO-8601 date or raw real number of days."""
    text = text.strip()
    try:
        t = float(text)
    except ValueError:
        try:
            return float((date.fromisoformat(text) - EPOCH).days)
        except ValueError:
            raise CsvFormatError(f"unparseable timestamp: {text!r}") from None
    if not math.isfinite(t):
        raise CsvFormatError(f"non-finite timestamp: {text!r}")
    return t


def _parse_price(text: str) -> float:
    """Parse a price cell: a finite, positive real number."""
    try:
        p = float(text)
    except ValueError:
        raise CsvFormatError(f"unparseable price: {text!r}") from None
    if not math.isfinite(p):
        raise CsvFormatError(f"non-finite price: {text!r}")
    if p <= 0:
        raise CsvFormatError(f"non-positive price: {text!r}")
    return p


@dataclass(frozen=True, slots=True)
class PriceSeries:
    """Immutable, time-sorted series of strictly positive prices."""

    times: np.ndarray
    prices: np.ndarray
    label: str = ""
    log_prices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        prices = np.asarray(self.prices, dtype=float)
        if times.ndim != 1 or prices.ndim != 1 or len(times) != len(prices):
            raise DomainError("times and prices must be 1-d arrays of equal length")
        if len(times) < 2:
            raise DomainError("a price series needs at least 2 observations")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(prices)):
            raise DomainError("times and prices must be finite")
        if np.any(np.diff(times) <= 0):
            raise DomainError("times must be strictly increasing")
        if np.any(prices <= 0):
            raise DomainError("all prices must be positive")
        times.setflags(write=False)
        prices.setflags(write=False)
        log_prices = np.log(prices)
        log_prices.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "log_prices", log_prices)

    def __reduce__(self):
        # pickle and copy.deepcopy rebuild through __init__, so a copy's arrays are validated and read-only too
        return type(self), (self.times, self.prices, self.label)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True, slots=True)
class FitWindow:
    """Half-open index range [start, stop) resolving [t1, t2] within a series."""

    t1: float
    t2: float
    start: int
    stop: int

    def __post_init__(self):
        if not self.t1 < self.t2:
            raise WindowError(f"window start {self.t1} must precede end {self.t2}")
        if self.stop <= self.start:
            raise WindowError("window resolves to an empty index range")

    @property
    def n_points(self) -> int:
        return self.stop - self.start

    @property
    def length(self) -> float:
        return self.t2 - self.t1

    def times(self, series: PriceSeries) -> np.ndarray:
        return series.times[self.start : self.stop]

    def log_prices(self, series: PriceSeries) -> np.ndarray:
        return series.log_prices[self.start : self.stop]


def slice_window(
    series: PriceSeries,
    t1: float,
    t2: float,
    min_points: int = DEFAULT_MIN_WINDOW_POINTS,
) -> FitWindow:
    """Window covering every observation with t1 <= time <= t2, for finite t1 < t2."""
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise WindowError(f"window bounds [{t1}, {t2}] must be finite")
    if not t1 < t2:
        raise WindowError(f"window start {t1} must precede end {t2}")
    start = int(series.times.searchsorted(t1, side="left"))
    stop = int(series.times.searchsorted(t2, side="right"))
    n = stop - start
    if n < min_points:
        raise WindowError(
            f"window [{t1}, {t2}] holds {n} observations, fewer than the "
            f"minimum of {min_points}"
        )
    return FitWindow(t1=t1, t2=t2, start=start, stop=stop)


@dataclass(frozen=True, slots=True)
class CsvOptions:
    date_column: str = "date"
    price_column: str = "price"


@dataclass(frozen=True, slots=True)
class RejectedRow:
    line: int
    reason: str


@dataclass(frozen=True, slots=True)
class LoadResult:
    series: PriceSeries
    rejected: tuple[RejectedRow, ...]
    deduplicated: int


def load_csv(source, options: CsvOptions = CsvOptions(), label: str = "") -> LoadResult:
    """Read a header CSV into a validated PriceSeries.

    Rows with unparseable timestamps or unparseable, non-finite or
    non-positive prices are rejected and reported by line number. Duplicate
    timestamps with equal price are deduplicated; with different prices they
    are a hard error. A bytes source must be UTF-8 text. A line the csv
    module cannot read, such as one with a field over its size limit, is a
    CsvFormatError naming that line.
    """
    if isinstance(source, bytes):
        try:
            source = io.StringIO(source.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"input is not UTF-8 text ({exc.reason})") from None
    elif isinstance(source, str):
        source = io.StringIO(source)
    reader = _records(csv.reader(source))
    try:
        _, header = next(reader)
    except StopIteration:
        raise CsvFormatError("empty file") from None
    if header:  # spreadsheets often export a UTF-8 byte-order mark
        header[0] = header[0].removeprefix("\ufeff")
    header = [h.strip() for h in header]
    try:
        t_idx = header.index(options.date_column)
        p_idx = header.index(options.price_column)
    except ValueError:
        raise CsvFormatError(
            f"missing column: need {options.date_column!r} and "
            f"{options.price_column!r}, got {header}"
        ) from None

    width = max(t_idx, p_idx) + 1
    rows: list[tuple[float, float]] = []
    rejected: list[RejectedRow] = []
    for line_no, row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        try:
            if len(row) < width:
                raise CsvFormatError("too few columns")
            rows.append((parse_time(row[t_idx]), _parse_price(row[p_idx])))
        except CsvFormatError as exc:
            rejected.append(RejectedRow(line_no, str(exc)))

    if len(rows) < 2:
        raise CsvFormatError(f"only {len(rows)} valid rows; need at least 2")

    rows.sort(key=lambda tp: tp[0])
    times: list[float] = []
    prices: list[float] = []
    deduplicated = 0
    for t, p in rows:
        if times and t == times[-1]:
            if p == prices[-1]:
                deduplicated += 1
                continue
            raise CsvFormatError(
                f"duplicate timestamp {t} with conflicting prices "
                f"{prices[-1]} and {p}"
            )
        times.append(t)
        prices.append(p)

    if len(times) < 2:
        raise CsvFormatError("fewer than 2 distinct timestamps after deduplication")

    series = PriceSeries(np.array(times), np.array(prices), label=label)
    return LoadResult(series=series, rejected=tuple(rejected), deduplicated=deduplicated)


def _records(reader):
    """(first physical line, row) of each csv row; a csv.Error becomes a CsvFormatError naming its line.

    A quoted field may hold line breaks, so a row's line is the reader's
    line count before it plus one, not its record number.
    """
    try:
        line = reader.line_num + 1
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise CsvFormatError(f"line {reader.line_num}: {exc}") from None


def save_csv(series: PriceSeries, sink) -> None:
    """Write `time,price,log_price` with 12 significant digits."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["time", "price", "log_price"])
    for t, p, lp in zip(series.times, series.prices, series.log_prices):
        writer.writerow([format(t, ".12g"), format(p, ".12g"), format(lp, ".12g")])


def dumps_csv(series: PriceSeries) -> str:
    buf = io.StringIO()
    save_csv(series, buf)
    return buf.getvalue()
