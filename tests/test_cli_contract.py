"""The CLI's error contract under mutated input.

Every command ends with exit code 0, 1 or 2. Everything it writes to stderr
is JSON, one object per line, and when the exit code is not 0 the last line
is an error. A Python warning counts as a line that is not JSON, because the
installed command prints it to stderr.

Each test takes one small valid command and replaces the values of one to
three of its flags (never the flag names, the regime's parameter names or
the file paths) with drawn text; the fit test also mutates cells of its input
CSV. Runs stay small: --jobs stays 1, n_starts and max_iter never rise above
the template's, and synth grids keep to about a thousand points.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lpplscan.cli import main

# specials and boundaries that reach the validators, next to free text
SPECIAL = [
    "", " ", "0", "-0", "1", "-1", "2", "0.5", "-0.5", "1e-320", "1e308", "1e309", "-1e309",
    "nan", "inf", "-inf", "abc", "none", "1,2", ",", "=", "1e3", "2024-01-05",
]
TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=6)
ANY = st.one_of(
    st.sampled_from(SPECIAL), st.floats().map(repr), st.integers(-10**6, 10**6).map(str), TEXT
)
PAIR = st.one_of(ANY, st.tuples(ANY, ANY).map(",".join))
LIST = st.lists(ANY, min_size=1, max_size=3).map(",".join)
# values for the keys that set the amount of search work: none above the templates'
SMALL = st.sampled_from(["-1", "0", "1", "2", "1.5", "abc", "", "nan", "none"])


def _small_grid(parts) -> bool:
    try:
        start, end, step = (float(p) for p in parts)
    except ValueError:
        return True
    return not (step > 0 and (end - start) / step > 1000)


GRID = st.one_of(ANY, st.tuples(ANY, ANY, ANY).filter(_small_grid).map(",".join))


@st.composite
def mutated(draw, template):
    """The template's argv with one to three of its (prefix, default, values) slots redrawn."""
    slots = [i for i, token in enumerate(template) if isinstance(token, tuple)]
    chosen = draw(st.sets(st.sampled_from(slots), min_size=1, max_size=3))
    argv = []
    for i, token in enumerate(template):
        if isinstance(token, str):
            argv.append(token)
        else:
            prefix, default, values = token
            argv.append(prefix + (draw(values) if i in chosen else default))
    return argv


def check_contract(argv):
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), argv
    assert [str(w.message) for w in caught] == [], argv
    lines = stderr.getvalue().splitlines()
    assert all(isinstance(json.loads(line), dict) for line in lines), (argv, lines)
    if code != 0:
        assert lines and "error" in json.loads(lines[-1]), (argv, lines)


def lppl_rows(n=60):
    t = np.arange(float(n))
    dt = 70.0 - t
    log_p = 6.0 - 0.6 * dt**0.5 + 0.04 * dt**0.5 * np.cos(7.0 * np.log(dt) - 1.0)
    return [["time", "price"]] + [[repr(float(ti)), repr(math.exp(lp))] for ti, lp in zip(t, log_p)]


def write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


SEARCH = [("n_starts=", "2", SMALL), ("max_iter=", "40", SMALL)]


@settings(max_examples=60, deadline=None)
@given(
    argv=mutated([
        "fit", "--input", "{csv}", ("--date-column=", "time", ANY), ("--t1=", "10", ANY),
        ("--t2=", "59", ANY), ("--seed=", "5", ANY), "--filters", *SEARCH,
        ("tc_horizon=", "0.5", ANY), ("m_range=", "0.01,0.99", PAIR), ("min_line_gain=", "0.25", ANY),
        ("min_points=", "30", ANY),
    ]),
    cells=st.dictionaries(st.tuples(st.integers(0, 60), st.integers(0, 1)), ANY, max_size=4),
)
def test_fit(argv, cells):
    rows = lppl_rows()
    for (r, c), text in cells.items():
        rows[r][c] = text
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        write_csv(path, rows)
        check_contract([token.replace("{csv}", str(path)) for token in argv])


@settings(max_examples=30, deadline=None)
@given(
    argv=mutated([
        "scan", "--input", "{csv}", "--date-column", "time", ("--windows=", "40,50", LIST),
        ("--every=", "20", ANY), ("--band=", "0.1,0.9", PAIR), ("--seed=", "5", ANY),
        "--jobs", "1", "--out", "{out}", "--filters", *SEARCH,
        ("min_points=", "30", ANY), ("omega_range=", "2,15", PAIR),
    ])
)
def test_scan(argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        write_csv(path, lppl_rows())
        argv = [token.replace("{csv}", str(path)).replace("{out}", str(Path(tmp) / "out")) for token in argv]
        check_contract(argv)


SYNTH_PARAMS = {
    "lppl": [("t_c=", "230", ANY), ("m=", "0.5", ANY), ("omega=", "6.28", ANY), ("B=", "-1", ANY), ("C=", "0.05", ANY)],
    "exp": [("rate=", "0.01", ANY), ("p0=", "10", ANY)],
    "logistic": [("rate=", "0.05", ANY), ("p0=", "1", ANY), ("capacity=", "50", ANY)],
    "hyperbolic": [("t_c=", "250", ANY), ("alpha=", "0.7", ANY), ("scale=", "20", ANY)],
}


@settings(max_examples=100, deadline=None)
@given(
    argv=st.sampled_from(sorted(SYNTH_PARAMS)).flatmap(lambda regime: mutated([
        "synth", "--regime", regime, "--params", *SYNTH_PARAMS[regime],
        ("--grid=", "0,199,1", GRID), ("--noise=", "0.01", ANY), ("--seed=", "3", ANY),
        "--out", "{out}",
    ]))
)
def test_synth(argv):
    with tempfile.TemporaryDirectory() as tmp:
        check_contract([token.replace("{out}", str(Path(tmp) / "s.csv")) for token in argv])


@settings(max_examples=100, deadline=None)
@given(argv=mutated(["cascade", ("--p0=", "2", ANY), ("--rate=", "0.02", ANY), ("--steps=", "10", ANY)]))
def test_cascade(argv):
    check_contract(argv)
