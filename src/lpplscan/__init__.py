"""Bubble diagnostics: log-periodic power law calibration over rolling windows."""

from .calibration import (
    FilterConfig,
    FitResult,
    SearchConfig,
    fit_window,
    qualify,
    solve_linear,
)
from .errors import CsvFormatError, DomainError, FitError, WindowError
from .model import (
    CascadeState,
    DividendModel,
    GrowthSpec,
    LpplParams,
    cascade,
    gordon_shapiro_price,
    gordon_shapiro_return,
    growth_value,
    lppl_basis,
    lppl_log_price,
    scaling_ratio,
    singular_time,
)
from .scanner import AlarmReport, ScanConfig, alarm_index, report, scan, tc_distribution
from .synth import SynthSpec, generate
from .timeseries import (
    CsvOptions,
    FitWindow,
    PriceSeries,
    load_csv,
    save_csv,
    slice_window,
)

__version__ = "0.1.0"

__all__ = [
    "AlarmReport",
    "CascadeState",
    "CsvFormatError",
    "CsvOptions",
    "DividendModel",
    "DomainError",
    "FilterConfig",
    "FitError",
    "FitResult",
    "FitWindow",
    "GrowthSpec",
    "LpplParams",
    "PriceSeries",
    "ScanConfig",
    "SearchConfig",
    "SynthSpec",
    "WindowError",
    "alarm_index",
    "cascade",
    "fit_window",
    "generate",
    "gordon_shapiro_price",
    "gordon_shapiro_return",
    "growth_value",
    "load_csv",
    "lppl_basis",
    "lppl_log_price",
    "qualify",
    "report",
    "save_csv",
    "scaling_ratio",
    "scan",
    "singular_time",
    "slice_window",
    "solve_linear",
]
