"""Result and config objects are frozen, slotted dataclasses: no per-instance
__dict__, and every copy (pickle, deepcopy, replace) keeps every field.
"""

import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import pkgutil

import numpy as np
import pytest

import lpplscan
from lpplscan.calibration import FilterConfig, SearchConfig, fit_window
from lpplscan.model import LpplParams
from lpplscan.scanner import ScanConfig, report, scan
from lpplscan.synth import SynthSpec, generate
from lpplscan.timeseries import slice_window

BUBBLE = LpplParams(t_c=150.0, m=0.5, omega=6.28, phi=1.0, A=8.0, B=-0.8, C=0.05)
FAST = SearchConfig(n_starts=2, max_iter=60)


def package_dataclasses():
    modules = [importlib.import_module(f"lpplscan.{info.name}") for info in pkgutil.iter_modules(lpplscan.__path__)]
    return [
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
    ]


def assert_same(a, b, path="obj"):
    """Field by field; arrays by value and dtype, NaN equal to NaN."""
    assert type(a) is type(b), path
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), path
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    elif isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            assert_same(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, float) and math.isnan(a):
        assert math.isnan(b), path
    else:
        assert a == b, path


def test_every_dataclass_is_slotted():
    # a new dataclass without slots=True would bring the per-instance dict back
    found = package_dataclasses()
    assert len(found) >= 19
    for cls in found:
        assert "__slots__" in vars(cls), cls.__qualname__
        assert cls.__dictoffset__ == 0, f"{cls.__qualname__} instances carry a __dict__"


@pytest.fixture(scope="module")
def results():
    series = generate(SynthSpec(regime=BUBBLE, t_start=0, t_end=139, step=1.0, noise_sigma=0.01, seed=5)).series
    cfg = ScanConfig(window_lengths=(60.0, 90.0), end_every=20, search=FAST, seed=3)
    fit = fit_window(series, slice_window(series, 50.0, 139.0), FAST, FilterConfig(max_rmse=1e-6), seed=7)
    assert fit.checks and fit.failures  # the rmse ceiling fails the fit, so it carries both
    return {"fit": fit, "report": report(series, cfg), "scan": scan(series, cfg), "series": series}


@pytest.mark.parametrize("name", ["fit", "report", "scan", "series"])
@pytest.mark.parametrize(
    "round_trip",
    [
        lambda obj: pickle.loads(pickle.dumps(obj)),
        lambda obj: pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)),
        copy.deepcopy,
        dataclasses.replace,
    ],
    ids=["pickle", "pickle-highest", "deepcopy", "replace"],
)
def test_round_trip_keeps_every_field(results, name, round_trip):
    obj = results[name]
    assert not hasattr(obj, "__dict__")
    assert_same(obj, round_trip(obj))
