import copy
import io
import math
import pickle

import numpy as np
import pytest

from lpplscan.errors import CsvFormatError, DomainError, WindowError
from lpplscan.timeseries import (
    CsvOptions,
    PriceSeries,
    dumps_csv,
    load_csv,
    parse_time,
    slice_window,
)


def daily_series(n=100, start=0.0):
    times = start + np.arange(n, dtype=float)
    prices = 100.0 + np.sin(times)
    return PriceSeries(times, prices, label="daily")


class TestPriceSeries:
    def test_log_prices(self):
        s = PriceSeries([0.0, 1.0], [100.0, 101.0])
        assert s.log_prices == pytest.approx([math.log(100), math.log(101)])

    def test_invariants(self):
        with pytest.raises(DomainError):
            PriceSeries([0.0], [1.0])
        with pytest.raises(DomainError):
            PriceSeries([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(DomainError):
            PriceSeries([1.0, 0.0], [1.0, 1.0])
        with pytest.raises(DomainError):
            PriceSeries([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(DomainError):
            PriceSeries([0.0, 1.0], [1.0, math.inf])

    def test_immutable(self):
        s = daily_series()
        with pytest.raises(ValueError):
            s.times[0] = -5.0

    @pytest.mark.parametrize(
        "copy_of",
        [
            lambda s: pickle.loads(pickle.dumps(s)),
            lambda s: pickle.loads(pickle.dumps(s, protocol=pickle.HIGHEST_PROTOCOL)),
            copy.deepcopy,
        ],
        ids=["pickle", "pickle-highest", "deepcopy"],
    )
    def test_copy_is_immutable(self, copy_of):
        # a pooled scan's workers get their series by pickle
        s = copy_of(daily_series())
        for name in ("times", "prices", "log_prices"):
            assert not getattr(s, name).flags.writeable, name
            with pytest.raises(ValueError):
                getattr(s, name)[0] = -5.0


class TestLoadCsv:
    def test_two_rows(self):
        result = load_csv("date,price\n2020-01-01,100\n2020-01-02,101\n")
        s = result.series
        assert len(s) == 2
        assert s.log_prices == pytest.approx([math.log(100), math.log(101)])
        assert s.times[1] - s.times[0] == 1.0

    def test_negative_price_rejected_with_line_number(self):
        result = load_csv("date,price\n2020-01-01,100\n2020-01-02,-5\n2020-01-03,101\n")
        assert len(result.series) == 2
        assert len(result.rejected) == 1
        assert result.rejected[0].line == 3
        assert "-5" in result.rejected[0].reason

    def test_rejected_row_is_numbered_by_physical_line(self):
        # a quoted field holding a line break spans two lines, and a blank line counts as one
        result = load_csv('date,price,note\n1,10,"a\nb"\n2,20,x\n3,-5,y\n\n4,40,z\n5,nan,w\n')
        assert [r.line for r in result.rejected] == [5, 8]
        assert list(result.series.times) == [1.0, 2.0, 4.0]

    @pytest.mark.parametrize(
        "price, reason",
        [("inf", "non-finite price"), ("nan", "non-finite price"), ("-inf", "non-finite price"),
         ("0", "non-positive price")],
    )
    def test_rejected_price_reason(self, price, reason):
        result = load_csv(f"date,price\n2020-01-01,100\n2020-01-02,{price}\n2020-01-03,101\n")
        assert [(r.line, r.reason) for r in result.rejected] == [(3, f"{reason}: {price!r}")]

    def test_shuffled_input_equals_sorted(self):
        sorted_csv = "date,price\n2020-01-01,100\n2020-01-02,101\n2020-01-03,99\n"
        shuffled = "date,price\n2020-01-03,99\n2020-01-01,100\n2020-01-02,101\n"
        a = load_csv(sorted_csv).series
        b = load_csv(shuffled).series
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.prices, b.prices)

    def test_empty_file(self):
        with pytest.raises(CsvFormatError, match="empty"):
            load_csv("")

    def test_non_utf8_bytes(self):
        with pytest.raises(CsvFormatError, match="not UTF-8"):
            load_csv(b"date,price\n2020-01-01,100\n2020-01-02,\xff\n")

    def test_too_few_valid_rows(self):
        with pytest.raises(CsvFormatError, match="valid rows"):
            load_csv("date,price\n2020-01-01,100\n2020-01-02,bogus\n")

    def test_duplicate_timestamp_equal_price_deduplicated(self):
        result = load_csv("date,price\n2020-01-01,100\n2020-01-01,100\n2020-01-02,101\n")
        assert len(result.series) == 2
        assert result.deduplicated == 1

    def test_duplicate_timestamp_conflicting_price_fails(self):
        with pytest.raises(CsvFormatError, match="conflicting"):
            load_csv("date,price\n2020-01-01,100\n2020-01-01,200\n2020-01-02,101\n")

    def test_numeric_timestamps(self):
        s = load_csv("date,price\n0.5,10\n1.5,20\n").series
        assert list(s.times) == [0.5, 1.5]

    def test_custom_columns(self):
        opts = CsvOptions(date_column="ts", price_column="close")
        s = load_csv("ts,close,junk\n1,10,x\n2,20,y\n", opts).series
        assert list(s.prices) == [10.0, 20.0]

    def test_missing_column(self):
        with pytest.raises(CsvFormatError, match="missing column"):
            load_csv("when,price\n1,10\n2,20\n")

    def test_field_over_csv_size_limit_names_its_line(self):
        # the csv module refuses a field over 131,072 characters with csv.Error
        big = "9" * 140_000
        with pytest.raises(CsvFormatError, match=r"^line 3: field larger than field limit"):
            load_csv(f"date,price\n1,10\n2,{big}\n3,30\n")
        with pytest.raises(CsvFormatError, match=r"^line 1: field larger than field limit"):
            load_csv(f"date,price,{big}\n1,10,x\n2,20,y\n")

    def test_byte_stream(self):
        s = load_csv(b"date,price\n1,10\n2,20\n").series
        assert len(s) == 2

    @pytest.mark.parametrize("source", ["\ufeffdate,price\n1,10\n2,20\n", "\ufeffdate,price\n1,10\n2,20\n".encode()])
    def test_byte_order_mark_is_dropped(self, source):
        s = load_csv(source).series
        assert list(s.prices) == [10.0, 20.0]


class TestRoundTrip:
    def test_save_load_identity_on_representation(self):
        # one save/load settles onto the 12-digit representation; after that,
        # load o save is the identity on the emitted bytes
        s = daily_series(40)
        opts = CsvOptions(date_column="time", price_column="price")
        text = dumps_csv(load_csv(dumps_csv(s), opts).series)
        assert dumps_csv(load_csv(text, opts).series) == text

    def test_header_and_digits(self):
        s = PriceSeries([0.0, 1.0], [math.pi * 100, 101.0])
        lines = dumps_csv(s).splitlines()
        assert lines[0] == "time,price,log_price"
        assert lines[1].split(",")[1] == "314.159265359"


class TestParseTime:
    def test_iso_and_raw(self):
        assert parse_time("1970-01-02") == 1.0
        assert parse_time("12.25") == 12.25

    def test_unparseable(self):
        with pytest.raises(CsvFormatError):
            parse_time("not-a-date")

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "Infinity"])
    def test_non_finite(self, text):
        with pytest.raises(CsvFormatError):
            parse_time(text)


class TestSliceWindow:
    def test_full_range_is_whole_series(self):
        s = daily_series(100)
        w = slice_window(s, s.t_start, s.t_end)
        assert w.n_points == len(s)
        assert np.array_equal(w.times(s), s.times)

    def test_too_small(self):
        s = daily_series(100)
        with pytest.raises(WindowError, match="fewer than"):
            slice_window(s, 10.0, 10.5)

    def test_middle_fifty_days_has_51_points(self):
        s = daily_series(100)
        w = slice_window(s, 25.0, 75.0)
        assert w.n_points == 51

    def test_inverted_bounds(self):
        s = daily_series(100)
        with pytest.raises(WindowError):
            slice_window(s, 50.0, 40.0)

    @pytest.mark.parametrize("t1, t2", [(0.0, math.inf), (-math.inf, 99.0)], ids=["inf", "-inf"])
    def test_non_finite_bound(self, t1, t2):
        s = daily_series(100)
        with pytest.raises(WindowError, match="must be finite"):
            slice_window(s, t1, t2)

    def test_points_are_contiguous_subsequence(self):
        s = daily_series(100)
        w = slice_window(s, 12.3, 61.7)
        assert np.array_equal(w.times(s), s.times[w.start : w.stop])
        assert s.times[w.start] >= 12.3
        assert s.times[w.stop - 1] <= 61.7
        if w.start > 0:
            assert s.times[w.start - 1] < 12.3
        if w.stop < len(s):
            assert s.times[w.stop] > 61.7
