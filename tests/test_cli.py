import dataclasses
import json
import math
from pathlib import Path

import pytest

from lpplscan import calibration, cli, scanner
from lpplscan.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_json_object(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])


def write_bubble(capsys, path, step=1.0):
    """A seeded bubble with t_c = 150 steps on a grid of 140 steps; B, C and phi absorb the time unit."""
    code, out, _ = run(
        capsys,
        "synth",
        "--regime", "lppl",
        "--params", f"t_c={150 * step!r}", "m=0.5", "omega=6.28", f"phi={(1 + 6.28 * math.log(step)) % (2 * math.pi)!r}",
        "A=8", f"B={-0.8 / step**0.5!r}", f"C={0.05 / step**0.5!r}",
        "--grid", f"0,{139 * step!r},{step!r}",
        "--noise", "0.01",
        "--seed", "7",
        "--out", str(path),
    )
    assert code == 0
    return path


@pytest.fixture
def bubble_csv(tmp_path, capsys):
    return write_bubble(capsys, tmp_path / "bubble.csv")


class TestPrice:
    def test_reference_value(self, capsys):
        code, out, _ = run(
            capsys, "price", "--dividend", "100", "--return", "0.08", "--growth", "0.04"
        )
        assert code == 0
        assert out.strip() == "2500"

    def test_no_finite_price_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "price", "--dividend", "100", "--return", "0.04", "--growth", "0.04"
        )
        assert code == 1
        assert "no finite price" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--dividend", "--return", "--growth"])
    def test_non_finite_input_is_domain_error(self, capsys, flag, value):
        values = {"--dividend": "100", "--return": "0.05", "--growth": "0.04", flag: value}
        code, out, err = run(capsys, "price", *(f"{k}={v}" for k, v in values.items()))
        assert (code, out) == (1, "")
        assert one_json_object(err)["error"] == {
            "type": "DomainError", "message": "dividend, return and growth must be finite"
        }

    def test_missing_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["price", "--dividend", "100"])
        assert exc.value.code == 2
        error = one_json_object(capsys.readouterr().err)["error"]
        assert error["type"] == "usage" and "--return" in error["message"]


class TestCascade:
    def test_table_values(self, capsys):
        code, out, _ = run(capsys, "cascade", "--p0", "2", "--rate", "0.02", "--steps", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "time,population,rate,doubling_time"
        doubling = [float(line.split(",")[3]) for line in lines[1:]]
        table = [34.65, 17.33, 8.66, 4.33, 2.17, 1.08, 0.54, 0.27, 0.14, 0.07]
        assert doubling == pytest.approx(table, abs=0.01)

    def test_file_output(self, tmp_path, capsys):
        out_file = tmp_path / "cascade.csv"
        code, _, _ = run(
            capsys, "cascade", "--p0", "2", "--rate", "0.02", "--steps", "3",
            "--out", str(out_file),
        )
        assert code == 0
        assert out_file.read_text().startswith("time,population")

    def test_overflow_is_domain_error(self, tmp_path, capsys):
        out_file = tmp_path / "cascade.csv"
        # too many doublings, a doubling time past the largest double, a time past it
        for p0, rate, steps in [("2", "0.02", "2000"), ("1e-320", "1e-320", "3"), ("1", "7e-309", "5")]:
            code, _, err = run(
                capsys, "cascade", "--p0", p0, "--rate", rate, "--steps", steps,
                "--out", str(out_file),
            )
            assert code == 1
            assert one_json_object(err)["error"]["type"] == "DomainError"
            assert not out_file.exists()


class TestSynth:
    def test_writes_csv_and_truth(self, bubble_csv):
        assert bubble_csv.exists()
        truth = json.loads(bubble_csv.with_suffix(".truth.json").read_text())
        assert truth["regime"] == "lppl"
        assert truth["t_c"] == 150
        header = bubble_csv.read_text().splitlines()[0]
        assert header == "time,price,log_price"

    def test_deterministic_bytes(self, tmp_path, capsys):
        args = [
            "synth", "--regime", "exp", "--params", "rate=0.002", "p0=10",
            "--grid", "0,99,1", "--noise", "0.02", "--seed", "3",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_bad_regime_grid(self, capsys):
        code, _, err = run(
            capsys, "synth", "--regime", "lppl", "--params", "t_c=50",
            "--grid", "0,99,1", "--out", "/tmp/never.csv",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "params",
        [
            ["--regime", "lppl"],  # t_c is required
            ["--regime", "exp", "--params", "rate=abc"],
            ["--regime", "exp", "--params", "capacity=5"],  # not a key of exp
            ["--regime", "hyperbolic", "--params", "rate=0.1"],
        ],
    )
    def test_bad_params_are_usage_errors(self, tmp_path, capsys, params):
        out = tmp_path / "s.csv"
        code, _, err = run(capsys, "synth", *params, "--out", str(out))
        assert code == 2
        assert one_json_object(err)["error"]["type"] == "usage"
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--grid", "0,nan,1"],
            ["--grid", "0,inf,1"],
            ["--grid", "0,1e9,1e-3"],
            ["--noise", "nan"],
            ["--noise", "inf"],
            ["--params", "rate=1", "--grid", "0,1000,1"],  # prices overflow
            ["--seed", "-1", "--noise", "0.1"],
        ],
    )
    def test_out_of_range_input_is_domain_error(self, tmp_path, capsys, extra):
        out = tmp_path / "s.csv"
        code, _, err = run(capsys, "synth", "--regime", "exp", *extra, "--out", str(out))
        assert code == 1
        assert one_json_object(err)["error"]["type"] == "DomainError"
        assert not out.exists()

    def test_params_defaults_fill_the_truth(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "synth", "--regime", "logistic", "--params", "p0=2", "--out", str(out))
        assert code == 0
        truth = json.loads(out.with_suffix(".truth.json").read_text())
        assert (truth["regime"], truth["rate"], truth["p0"], truth["capacity"]) == ("logistic", 0.01, 2.0, 100.0)


class TestFit:
    # the same bubble in time units of 1e-300 to 1e200 days: stderr stays empty at every one
    @pytest.mark.parametrize("step", [1.0, 1e-300, 1e150, 1e200])
    def test_fit_json(self, capsys, tmp_path, step):
        bubble_csv = write_bubble(capsys, tmp_path / "bubble.csv", step)
        out = tmp_path / "fit.json"
        code, _, err = run(
            capsys,
            "fit", "--input", str(bubble_csv), "--date-column", "time",
            "--t1", "0", "--t2", repr(139 * step),
            "--filters", "n_starts=6",
            "--seed", "5",
            "--out", str(out),
        )
        assert (code, err) == (0, "")
        blob = json.loads(out.read_text())
        assert blob["params"]["t_c"] == pytest.approx(150.0 * step, abs=10.0 * step)
        assert blob["qualified"] is True
        assert blob["sign"] == "positive_bubble"

    def test_fit_stdout_deterministic(self, bubble_csv, capsys):
        args = [
            "fit", "--input", str(bubble_csv), "--date-column", "time",
            "--t1", "0", "--t2", "139", "--filters", "n_starts=4", "--seed", "5",
        ]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_window_too_small(self, bubble_csv, capsys):
        code, _, err = run(
            capsys,
            "fit", "--input", str(bubble_csv), "--date-column", "time",
            "--t1", "0", "--t2", "5",
        )
        assert code == 1
        assert "fewer than" in json.loads(err)["error"]["message"]

    def test_non_finite_timestamp_row_is_rejected(self, bubble_csv, capsys):
        with open(bubble_csv, "a") as fh:
            fh.write("inf,5,1.6\n")
        code, _, err = run(
            capsys,
            "fit", "--input", str(bubble_csv), "--date-column", "time",
            "--t1", "0", "--t2", "139", "--filters", "n_starts=2",
        )
        assert code == 0
        warning = one_json_object(err)
        assert warning["warning"] == "row rejected"
        assert "non-finite" in warning["reason"]

    def test_rejected_row_warning_names_its_physical_line(self, bubble_csv, capsys):
        # the header and 140 rows fill lines 1-141; the quoted field spans lines 142-143
        with open(bubble_csv, "a") as fh:
            fh.write('140,5,"1.6\n"\n141,-5,1.6\n')
        code, _, err = run(
            capsys,
            "fit", "--input", str(bubble_csv), "--date-column", "time",
            "--t1", "0", "--t2", "139", "--filters", "n_starts=2",
        )
        assert code == 0
        warning = one_json_object(err)
        assert (warning["warning"], warning["line"]) == ("row rejected", 144)

    def test_non_utf8_input_is_csv_format_error(self, bubble_csv, capsys):
        with open(bubble_csv, "ab") as fh:
            fh.write(b"140,\xff,1.6\n")
        code, _, err = run(
            capsys,
            "fit", "--input", str(bubble_csv), "--date-column", "time",
            "--t1", "0", "--t2", "139", "--filters", "n_starts=2",
        )
        assert code == 1
        error = one_json_object(err)["error"]
        assert error["type"] == "CsvFormatError" and "UTF-8" in error["message"]

    def test_byte_order_mark_is_dropped(self, bubble_csv, capsys, tmp_path):
        args = ["fit", "--date-column", "time", "--t1", "0", "--t2", "139", "--filters", "n_starts=2"]
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + bubble_csv.read_bytes())
        code, out, _ = run(capsys, *args, "--input", str(bom))
        assert code == 0
        assert (code, out) == run(capsys, *args, "--input", str(bubble_csv))[:2]

    @pytest.mark.parametrize("command", [["fit", "--t1", "0", "--t2", "139"], ["scan"]], ids=["fit", "scan"])
    def test_field_over_csv_size_limit_is_csv_format_error(self, bubble_csv, capsys, tmp_path, command):
        with open(bubble_csv, "a") as fh:
            fh.write(f"140,{'9' * 140_000},1.6\n")
        code, out, err = run(
            capsys, *command, "--input", str(bubble_csv), "--date-column", "time", "--out", str(tmp_path / "out"),
        )
        assert (code, out) == (1, "")
        error = one_json_object(err)["error"]
        assert error["type"] == "CsvFormatError"
        assert error["message"] == "line 142: field larger than field limit (131072)"

    def test_missing_input_file(self, capsys):
        code, _, err = run(
            capsys, "fit", "--input", "/nonexistent.csv", "--t1", "0", "--t2", "100"
        )
        assert code == 2


class TestScan:
    def test_scan_outputs(self, bubble_csv, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        code, out, _ = run(
            capsys,
            "scan", "--input", str(bubble_csv), "--date-column", "time",
            "--windows", "60,90", "--every", "40",
            "--filters", "n_starts=4",
            "--seed", "5",
            "--out", str(out_dir),
        )
        assert code == 0
        summary = json.loads(out)
        rep = json.loads(Path(summary["report_json"]).read_text())
        assert rep["n_fits"] >= 1
        csv_text = Path(summary["report_csv"]).read_text()
        assert csv_text.startswith("date,alarm,qualified,total")

    def test_scan_deterministic_bytes(self, bubble_csv, tmp_path, capsys):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            code, _, _ = run(
                capsys,
                "scan", "--input", str(bubble_csv), "--date-column", "time",
                "--windows", "60,90", "--every", "60",
                "--filters", "n_starts=4",
                "--seed", "5", "--out", str(d),
            )
            assert code == 0
        for name in ["bubble_report.json", "bubble_report.csv"]:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_config_file_overlay(self, bubble_csv, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("window_lengths = 60,90\nend_every = 60\nn_starts = 4\n")
        code, out, _ = run(
            capsys,
            "scan", "--input", str(bubble_csv), "--date-column", "time",
            "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / "r3"),
        )
        assert code == 0
        assert json.loads(out)["n_fits"] >= 1

    def test_bad_config_line(self, bubble_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        code, _, err = run(
            capsys, "scan", "--input", str(bubble_csv), "--config", str(cfg)
        )
        assert code == 2
        # every config source is checked before the CSV, which has no date column, is read
        for command in (["scan"], ["fit", "--t1", "0", "--t2", "100"]):
            code, _, err = run(capsys, *command, "--input", str(bubble_csv), "--filters", "bogus=1")
            assert code == 2
            assert one_json_object(err)["error"] == {"type": "usage", "message": "unknown key(s): bogus"}


class TestConfig:
    def scan(self, capsys, csv_path, tmp_path, *extra):
        return run(
            capsys,
            "scan", "--input", str(csv_path), "--date-column", "time",
            "--windows", "60", "--every", "200", "--filters", "n_starts=2",
            "--out", str(tmp_path / "rep"), *extra,
        )

    def test_every_config_field_is_a_key(self):
        fields = {
            f.name
            for cls in (calibration.FilterConfig, calibration.SearchConfig, scanner.ScanConfig)
            for f in dataclasses.fields(cls)
        }
        assert set(cli._KEYS) == fields - {"search", "filters"}

    def test_unknown_filter_keys_are_usage_errors(self, bubble_csv, tmp_path, capsys):
        code, _, err = self.scan(
            capsys, bubble_csv, tmp_path, "--filters", "n_start=2", "min_line_gain=0.9", "bogus=1", "rel_tol=1e-6"
        )
        assert code == 2
        message = one_json_object(err)["error"]["message"]
        assert "bogus" in message and "n_start" in message and "rel_tol" in message

    def test_unknown_config_file_key_is_usage_error(self, bubble_csv, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("n_start = 2\n")
        code, _, err = self.scan(capsys, bubble_csv, tmp_path, "--config", str(cfg))
        assert code == 2
        assert one_json_object(err)["error"]["type"] == "usage"

    def test_non_utf8_config_file_is_usage_error(self, bubble_csv, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_bytes(b"n_starts = 2  # \xff\n")
        code, _, err = self.scan(capsys, bubble_csv, tmp_path, "--config", str(cfg))
        assert code == 2
        error = one_json_object(err)["error"]
        assert error["type"] == "usage" and "UTF-8" in error["message"]

    @pytest.mark.parametrize(
        "extra",
        [
            ["--filters", "n_starts=abc"],
            ["--windows", "60,x"],
            ["--band", "0.1"],
            ["--seed", "x"],
            ["--filters", "m_range=0.1,y"],
        ],
    )
    def test_unparseable_value_is_usage_error(self, bubble_csv, tmp_path, capsys, extra):
        code, _, err = self.scan(capsys, bubble_csv, tmp_path, *extra)
        assert code == 2
        assert one_json_object(err)["error"]["type"] == "usage"

    @pytest.mark.parametrize(
        "extra",
        [
            ["--filters", "n_starts=0"],
            ["--filters", "max_iter=0"],
            ["--jobs", "0"],
            ["--seed=-1"],
            ["--filters", "n_starts=10001"],
            ["--filters", "min_oscillations=nan"],
            ["--filters", "min_line_gain=nan"],
            ["--filters", "max_rmse=nan"],
            ["--filters", "tc_horizon=nan"],
            ["--filters", "tc_horizon=inf"],
            ["--filters", "m_range=0.01,inf"],
            ["--filters", "min_points=0"],
            ["--filters", "min_points=6"],
            ["--windows", "60,nan"],
            ["--windows", "60,inf"],
            ["--filters", "max_rmse=-1"],
            ["--filters", "max_rmse=0"],
            ["--filters", "min_line_gain=1"],
            ["--filters", "min_line_gain=2"],
            ["--filters", "m_range=-2,0.5"],
            ["--filters", "m_range=0,0.5"],
            ["--filters", "omega_range=-15,-2"],
            ["--filters", "omega_range=0,15"],
        ],
    )
    def test_out_of_range_value_is_domain_error(self, bubble_csv, tmp_path, capsys, extra):
        code, _, err = self.scan(capsys, bubble_csv, tmp_path, *extra)
        assert code == 1
        assert one_json_object(err)["error"]["type"] == "DomainError"

    def test_negative_fit_seed_is_domain_error(self, bubble_csv, capsys):
        code, _, err = run(
            capsys, "fit", "--input", str(bubble_csv), "--date-column", "time",
            "--t1", "0", "--t2", "139", "--seed=-1",
        )
        assert code == 1
        assert one_json_object(err)["error"]["message"] == "seed must be >= 0"

    def test_fit_rejects_scan_only_filter_keys(self, bubble_csv, capsys):
        code, out, err = run(
            capsys, "fit", "--input", str(bubble_csv), "--date-column", "time", "--t1", "0", "--t2", "139",
            "--filters", "n_starts=2", "end_every=3", "n_jobs=4", "band=0.2,0.8", "window_lengths=5",
        )
        assert (code, out) == (2, "")
        error = one_json_object(err)["error"]
        assert error == {"type": "usage", "message": "fit does not use key(s): band, end_every, n_jobs, window_lengths"}

    def test_fit_rejects_scan_only_config_file_keys(self, bubble_csv, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("n_starts = 2\nwindow_lengths = 60,90\n")
        code, out, err = run(
            capsys, "fit", "--input", str(bubble_csv), "--date-column", "time", "--t1", "0", "--t2", "139",
            "--config", str(cfg),
        )
        assert (code, out) == (2, "")
        assert one_json_object(err)["error"] == {"type": "usage", "message": "fit does not use key(s): window_lengths"}

    def test_min_line_gain_reaches_the_filters(self, bubble_csv, capsys):
        args = ["fit", "--input", str(bubble_csv), "--date-column", "time",
                "--t1", "0", "--t2", "139", "--filters", "n_starts=2"]
        _, out, _ = run(capsys, *args)
        assert "beats_trend_line" in json.loads(out)["filters"]
        _, out, _ = run(capsys, *args, "min_line_gain=none")
        assert "beats_trend_line" not in json.loads(out)["filters"]

    def test_flags_beat_config_file(self, bubble_csv, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("window_lengths = 60,90\nend_every = 60\n")
        code, out, _ = self.scan(capsys, bubble_csv, tmp_path, "--config", str(cfg), "--every", "100")
        assert code == 0
        rep = json.loads(Path(json.loads(out)["report_json"]).read_text())
        assert [d["date"] for d in rep["dates"]] == [39.0, 139.0]
        assert rep["n_fits"] == 1  # one 60-day window: --windows beats the file too


class TestUsage:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["price", "--bogus", "1"])
        assert exc.value.code == 2
        assert one_json_object(capsys.readouterr().err)["error"]["type"] == "usage"

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert one_json_object(capsys.readouterr().err)["error"]["type"] == "usage"

    def test_bad_flag_value_is_one_json_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--regime", "exp", "--noise", "abc"])
        assert exc.value.code == 2
        error = one_json_object(capsys.readouterr().err)["error"]
        assert error["type"] == "usage" and "--noise" in error["message"]
