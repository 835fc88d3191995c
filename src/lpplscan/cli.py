"""Command-line front end: fit, scan, synth, price, cascade.

Exit codes: 0 success, 1 domain error, 2 usage error. Every error goes to
stderr as one JSON object so scripts can parse them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import calibration, model, scanner, synth, timeseries
from .errors import CsvFormatError, DomainError

DEFAULT_SEED = 42


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _parse_kv(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"expected KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_pair(text: str) -> tuple[float, float]:
    parts = _floats(text)
    if len(parts) != 2:
        raise UsageError(f"expected two comma-separated numbers, got {text!r}")
    return parts


# how a config value is read, by the annotation of the config field it sets
_PARSERS = {
    "int": int,
    "float": float,
    "float | None": lambda text: None if text.lower() == "none" else float(text),
    "tuple[float, float]": _parse_pair,
    "tuple[float, ...]": _floats,
}
# every key --config and --filters accept, with its parser: the fields of the
# three configs except the two configs nested in ScanConfig
_KEYS = {
    f.name: _PARSERS[f.type]
    for cls in (calibration.FilterConfig, calibration.SearchConfig, scanner.ScanConfig)
    for f in dataclasses.fields(cls)
    if f.type in _PARSERS
}
# dedicated flags and the key each sets; a given flag beats --config and --filters
_FLAG_KEYS = {"seed": "seed", "jobs": "n_jobs", "windows": "window_lengths", "every": "end_every", "band": "band"}


class UsageError(Exception):
    pass


def _error_line(kind: str, message: str) -> str:
    return json.dumps({"error": {"type": kind, "message": message}}) + "\n"


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one JSON error line, like every other error, and exits 2."""

    def error(self, message):
        self.exit(2, _error_line("usage", message))


def _read_config_file(path: str) -> dict[str, str]:
    """key = value lines, # comments; the same keys as --filters."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 text ({exc.reason})") from None
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return _parse_kv([line for line in lines if line])


def _parse_values(raw: dict[str, str], parsers: dict) -> dict:
    """Each KEY=VALUE text read by the parser of its key; an unknown key or a bad value is a usage error."""
    unknown = sorted(set(raw) - set(parsers))
    if unknown:
        raise UsageError(f"unknown key(s): {', '.join(unknown)}")
    values = {}
    for key, text in raw.items():
        try:
            values[key] = parsers[key](text)
        except ValueError:
            raise UsageError(f"bad value for {key}: {text!r}") from None
    return values


def _scan_config(args) -> scanner.ScanConfig:
    """The config read from the --config file, overlaid by --filters, overlaid by the dedicated flags."""
    raw = _read_config_file(args.config) if args.config else {}
    raw.update(_parse_kv(args.filters))
    flags = {key: getattr(args, flag, None) for flag, key in _FLAG_KEYS.items()}
    raw.update({key: text for key, text in flags.items() if text is not None})
    # a command without a key's flag (fit has no --windows, --every, --band, --jobs) rejects the key
    unused = sorted(key for flag, key in _FLAG_KEYS.items() if key in raw and not hasattr(args, flag))
    if unused:
        raise UsageError(f"{args.command} does not use key(s): {', '.join(unused)}")
    values = {"seed": DEFAULT_SEED, **_parse_values(raw, _KEYS)}

    def build(cls, **nested):
        return cls(**{f.name: values[f.name] for f in dataclasses.fields(cls) if f.name in values}, **nested)

    return build(scanner.ScanConfig, search=build(calibration.SearchConfig), filters=build(calibration.FilterConfig))


def _load_series(path: str, date_column: str, price_column: str):
    opts = timeseries.CsvOptions(date_column=date_column, price_column=price_column)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            result = timeseries.load_csv(fh, opts, label=Path(path).stem)
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"input {path} is not UTF-8 text ({exc.reason})") from None
    for rej in result.rejected:
        print(json.dumps({"warning": "row rejected", **dataclasses.asdict(rej)}), file=sys.stderr)
    return result.series


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def cmd_fit(args) -> int:
    config = _scan_config(args)
    series = _load_series(args.input, args.date_column, args.price_column)
    t1 = timeseries.parse_time(args.t1)
    t2 = timeseries.parse_time(args.t2)
    window = timeseries.slice_window(series, t1, t2, min_points=config.min_points)
    fit = calibration.fit_window(series, window, config.search, config.filters, seed=config.seed)
    text = json.dumps(fit.to_dict(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def cmd_scan(args) -> int:
    config = _scan_config(args)
    series = _load_series(args.input, args.date_column, args.price_column)
    rep = scanner.report(series, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    _json_dump(rep.to_dict(), out / f"{stem}_report.json")
    with open(out / f"{stem}_report.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rep.to_csv_rows())
    print(
        json.dumps(
            {
                "report_json": str(out / f"{stem}_report.json"),
                "report_csv": str(out / f"{stem}_report.csv"),
                "max_alarm": rep.max_alarm,
                "n_fits": rep.n_fits,
                "n_skipped": rep.n_skipped,
            }
        )
    )
    return 0


# regime -> (class, fixed fields, --params keys with their defaults); None marks a required key
_REGIMES = {
    "lppl": (model.LpplParams, {}, {"t_c": None, "m": 0.5, "omega": 6.28, "phi": 0.0, "A": 5.0, "B": -1.0, "C": 0.05}),
    "exp": (model.GrowthSpec, {"kind": "exponential"}, {"rate": 0.001, "p0": 1.0}),
    "logistic": (model.GrowthSpec, {"kind": "logistic"}, {"rate": 0.01, "p0": 1.0, "capacity": 100.0}),
    "hyperbolic": (model.GrowthSpec, {"kind": "hyperbolic"}, {"t_c": 100.0, "alpha": 1.0, "scale": 1.0}),
}


def _synth_regime(kind: str, pairs: list[str]):
    cls, fixed, defaults = _REGIMES[kind]
    values = {**defaults, **_parse_values(_parse_kv(pairs), dict.fromkeys(defaults, float))}
    missing = [key for key, value in values.items() if value is None]
    if missing:
        raise UsageError(f"--regime {kind} requires --params {', '.join(missing)}")
    return cls(**fixed, **values)


def cmd_synth(args) -> int:
    grid = _floats(args.grid)
    if len(grid) != 3:
        raise UsageError("--grid expects t_start,t_end,step")
    spec = synth.SynthSpec(
        regime=_synth_regime(args.regime, args.params),
        t_start=grid[0],
        t_end=grid[1],
        step=grid[2],
        noise_sigma=args.noise,
        seed=args.seed,
        label=Path(args.out).stem,
    )
    result = synth.generate(spec)
    csv_path = Path(args.out)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", newline="") as fh:
        timeseries.save_csv(result.series, fh)
    truth_path = csv_path.with_suffix(".truth.json")
    _json_dump(result.truth, truth_path)
    print(json.dumps({"csv": str(csv_path), "truth": str(truth_path), "n": len(result.series)}))
    return 0


def cmd_price(args) -> int:
    dm = model.DividendModel(D=args.dividend, r=args.ret, g=args.growth)
    print(_fmt(model.gordon_shapiro_price(dm)))
    return 0


def cmd_cascade(args) -> int:
    rows = model.cascade(args.p0, args.rate, args.steps)
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(f.name for f in dataclasses.fields(model.CascadeState))
        writer.writerows([_fmt(v) for v in dataclasses.astuple(row)] for row in rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lpplscan",
        description="Bubble diagnostics via log-periodic power law calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", required=True, help="input CSV path")
        p.add_argument("--date-column", default="date")
        p.add_argument("--price-column", default="price")
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--seed", help=f"base seed (default {DEFAULT_SEED})")
        p.add_argument(
            "--filters",
            nargs="*",
            default=[],
            metavar="K=V",
            help="config overrides, e.g. tc_horizon=0.5 n_starts=10; unknown keys are an error",
        )

    p_fit = sub.add_parser("fit", help="calibrate one window")
    add_io(p_fit)
    p_fit.add_argument("--t1", required=True, help="window start (ISO date or day number)")
    p_fit.add_argument("--t2", required=True, help="window end")
    p_fit.add_argument("--out", help="write the fit JSON here instead of stdout")
    p_fit.set_defaults(func=cmd_fit)

    p_scan = sub.add_parser("scan", help="rolling ensemble scan")
    add_io(p_scan)
    p_scan.add_argument("--windows", help="comma-separated window lengths in days")
    p_scan.add_argument("--every", help="evaluate every k-th observation")
    p_scan.add_argument("--band", help="quantile band, e.g. 0.1,0.9")
    p_scan.add_argument(
        "--jobs", help="cap on the processes the scan fits with: k = min(jobs, CPUs, windows) (default 1)"
    )
    p_scan.add_argument("--out", default=".", help="output directory")
    p_scan.set_defaults(func=cmd_scan)

    p_synth = sub.add_parser("synth", help="generate a synthetic series")
    p_synth.add_argument("--regime", required=True, choices=list(_REGIMES))
    p_synth.add_argument("--params", nargs="*", default=[], metavar="K=V")
    p_synth.add_argument("--grid", default="0,199,1", help="t_start,t_end,step")
    p_synth.add_argument("--noise", type=float, default=0.0)
    p_synth.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_synth.add_argument("--out", default="synth.csv", help="output CSV path")
    p_synth.set_defaults(func=cmd_synth)

    p_price = sub.add_parser("price", help="dividend-discount fair price")
    p_price.add_argument("--dividend", type=float, required=True)
    p_price.add_argument("--return", dest="ret", type=float, required=True)
    p_price.add_argument("--growth", type=float, required=True)
    p_price.set_defaults(func=cmd_price)

    p_cascade = sub.add_parser("cascade", help="doubling-cascade table")
    p_cascade.add_argument("--p0", type=float, required=True)
    p_cascade.add_argument("--rate", type=float, required=True)
    p_cascade.add_argument("--steps", type=int, required=True)
    p_cascade.add_argument("--out", help="write CSV here instead of stdout")
    p_cascade.set_defaults(func=cmd_cascade)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # non-finite values end in a DomainError; numpy's warnings would be non-JSON stderr lines
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as exc:
        sys.stderr.write(_error_line("usage", str(exc)))
        return 2
    except OSError as exc:
        sys.stderr.write(_error_line("io", str(exc)))
        return 2
    except DomainError as exc:
        sys.stderr.write(_error_line(type(exc).__name__, str(exc)))
        return 1


if __name__ == "__main__":
    sys.exit(main())
