"""Window calibration.

The seven model parameters split into four exactly linear ones (A, B, C1, C2)
and three nonlinear ones (t_c, m, omega). The linear block is solved by least
squares inside the objective, so the outer search runs over (t_c, m, omega)
only: a Latin-hypercube screen, then Nelder-Mead from its two best points,
then a variable-projection Gauss-Newton polish of each descent's end (Golub
& Pereyra 1973, with Kaufman's 1975 Jacobian). The Nelder-Mead is an
in-house ask/tell simplex (`_simplex`), a bit-exact transcription of scipy's
bounded one, so numpy is the only run-time dependency; it stops at loose
tolerances, and the polish (`_polish`) takes each end to the optimum in a
few steps. _fit_windows fits windows with the same number of points
together: each window keeps its own screen, scored in bounded batches, and
the descents of all of them run in lockstep, each step scoring every live
descent's next point in one batched call of the least-squares kernel, with a
row of log-prices per point; their ends are then polished in one batch, and
the polish's solve at a window's best end is its fit.
That kernel, _linear_fit, re-solves only a singular row by lstsq and warns of
nothing; every row of a batch is bit-identical to a one-row call, so a
window's fit does not depend on the windows fitted with it.
The outer search runs in normalized coordinates (t_c mapped to a unit interval
anchored at the window end), which makes results exactly invariant under
price scaling and time translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DomainError, FitError, WindowError
# benchmark/workloads.py wraps calibration.solve_linear, lppl_basis and qualify by name, and calls sign_of
from .model import TWO_PI, LpplParams, _basis, lppl_basis  # noqa: F401
from .timeseries import FitWindow, PriceSeries, slice_window

POSITIVE_BUBBLE = "positive_bubble"
NEGATIVE_BUBBLE = "negative_bubble"
NO_SIGN = "none"

# fraction of the t_c search range kept clear of the window end, so the
# basis log term stays finite at the last observation
_TC_MARGIN = 1e-6

_N_PARAMS = 7  # t_c, m, omega, phi, A, B, C: a window needs at least this many points
_SCREEN_PER_START = 50
_DESCENTS = 2
_MAX_STARTS = 10_000  # keeps the screen of 50 * n_starts points allocatable
_BATCH_ROWS = 4096  # basis rows (points x window length) per batched kernel call
# the simplex stops once its vertices agree to _XATOL in (u, m, omega) and
# _FATOL in scaled sse; the Gauss-Newton polish then takes each descent end to
# the optimum, so scaled prices and shifted times land on the same point
_FATOL = 1e-9
_XATOL = 1e-5
_POLISH_STEPS = 8
_POLISH_GAIN = 1e-15  # relative sse gain at or below which a polish step ends the row


@dataclass(frozen=True)
class FilterConfig:
    """Qualification thresholds guarding against over-fitting.

    Ranges are open intervals: a fit pinned at a search bound is rejected.
    """

    m_range: tuple[float, float] = (0.01, 0.99)
    omega_range: tuple[float, float] = (2.0, 15.0)
    tc_horizon: float = 0.5  # max (t_c - t2) as a fraction of window length
    max_rmse: float | None = None
    min_oscillations: float = 1.5
    # sse must undercut the best straight-line fit by this fraction; rejects
    # trend-following noise overfits whose oscillation amplitude is negligible
    min_line_gain: float | None = 0.25

    def __post_init__(self):
        values = (*self.m_range, *self.omega_range, self.tc_horizon, self.min_oscillations)
        if not all(math.isfinite(v) for v in (*values, self.max_rmse, self.min_line_gain) if v is not None):
            raise DomainError("filter ranges, horizon and thresholds must be finite")
        # the basis is singular at m = 0 and at omega = 0
        if not 0 < self.m_range[0] < self.m_range[1]:
            raise DomainError("m range must be nonempty and above 0")
        if not 0 < self.omega_range[0] < self.omega_range[1]:
            raise DomainError("omega range must be nonempty and above 0")
        if self.tc_horizon <= 0:
            raise DomainError("tc_horizon must be positive")
        # thresholds no fit can pass would silently zero every alarm
        if self.max_rmse is not None and self.max_rmse <= 0:
            raise DomainError("max_rmse must be positive")
        if self.min_line_gain is not None and self.min_line_gain >= 1:
            raise DomainError("min_line_gain must be below 1")


@dataclass(frozen=True)
class SearchConfig:
    """Effort of the (t_c, m, omega) search: a Latin-hypercube screen of
    50 * n_starts points (n_starts <= 10,000), then two Nelder-Mead descents
    of at most max_iter iterations each, from the screen's two best points,
    each finished by at most 8 Gauss-Newton steps.
    """

    n_starts: int = 20
    max_iter: int = 400

    def __post_init__(self):
        if not (1 <= self.n_starts <= _MAX_STARTS and self.max_iter >= 1):
            raise DomainError(f"n_starts must lie in [1, {_MAX_STARTS}] and max_iter be >= 1")


@dataclass(frozen=True)
class FitResult:
    params: LpplParams
    window: FitWindow
    sse: float
    rmse: float
    n_points: int
    qualified: bool
    sign: str
    sse_line: float | None = None  # sse of the best straight-line fit, for the line-gain filter
    failures: tuple[str, ...] = ()
    checks: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "params": self.params.as_dict(),
            "window": {
                "t1": self.window.t1,
                "t2": self.window.t2,
                "n_points": self.n_points,
            },
            "sse": self.sse,
            "rmse": self.rmse,
            "qualified": self.qualified,
            "sign": self.sign,
            "filters": {
                name: {"passed": passed, "failed": name in self.failures}
                for name, passed in self.checks.items()
            },
        }


def oscillation_count(omega: float, t_c: float, t1: float, t2: float) -> float:
    """Full log-periodic oscillations between t1 and t2: w*ln((tc-t1)/(tc-t2))/2pi."""
    return omega * math.log((t_c - t1) / (t_c - t2)) / TWO_PI


def solve_linear(
    series: PriceSeries,
    window: FitWindow,
    t_c: float,
    m: float,
    omega: float,
) -> tuple[float, float, float, float, float]:
    """Least-squares (A, B, C1, C2) of log-price on the model basis, plus sse.

    The window must be the one slice_window resolves from its [t1, t2], of
    at least 7 points (the LPPL parameters); any other is a WindowError.
    """
    _check_window(series, window)
    if t_c <= window.t2:
        raise DomainError(f"t_c={t_c} must lie beyond the window end {window.t2}")
    beta, sse = _linear_fit((t_c - window.times(series))[None], window.log_prices(series), m, omega)[:2]
    if not math.isfinite(sse[0]):
        raise FitError(f"linear solve produced non-finite coefficients at t_c={t_c}")
    A, B, c1, c2 = beta[0].tolist()
    return A, B, c1, c2, float(sse[0])


def _check_window(series: PriceSeries, window: FitWindow) -> None:
    """WindowError unless slice_window resolves [t1, t2] to the window's own [start, stop) of >= _N_PARAMS points."""
    if window.n_points < _N_PARAMS:
        raise WindowError(f"window [{window.t1}, {window.t2}] holds {window.n_points} points, "
                          f"fewer than the {_N_PARAMS} LPPL parameters")
    resolved = slice_window(series, window.t1, window.t2, min_points=_N_PARAMS)
    if (resolved.start, resolved.stop) != (window.start, window.stop):
        raise WindowError(f"window [{window.start}, {window.stop}) is not inside [{window.t1}, {window.t2}] or misses "
                          f"observations there, which are [{resolved.start}, {resolved.stop})")


def _solve(A, b):
    """np.linalg.solve's gufunc without its wrapper: a singular matrix of the stack leaves only its own x NaN."""
    return _umath_linalg.solve(A, b, signature="dd->d")


def _linear_fit(dt: np.ndarray, y: np.ndarray, m, omega):
    """Least-squares [A, B, C1, C2] of y on the basis at dt = t_c - t > 0: beta, sse, ln(dt), basis X, residuals.

    The one linear solve of calibration: the screen, the descents, the
    polish (whose solve is the fit) and solve_linear all go through it. A
    batch of P points passes dt of shape (P, n), with m and omega scalars or
    (P, 1) columns; y is one window's (n,) log-prices or a (P, n) row per
    point. beta has shape (P, 4) and sse shape (P,). Every row is
    bit-identical to its one-row call: stacked matmul runs the same BLAS
    kernels per row (einsum does not).
    Normal equations; only a row whose X'X is singular is re-solved, by
    minimum-norm lstsq. An overflowed basis gets sse inf; nothing warns.
    """
    with np.errstate(all="ignore"):
        ldt, X = _basis(dt, m, omega)
        Xt = X.swapaxes(-1, -2)
        G = Xt @ X
        beta = _solve(G, Xt @ y[..., None])[..., 0]
        resid, sse = _residuals(X, y, beta)
        if not np.isfinite(sse).all():
            # a singular G left only its own row NaN, re-solved here; a non-finite G is an overflowed basis
            for i in np.flatnonzero(~np.isfinite(sse) & np.isfinite(G).all(axis=(-2, -1))):
                beta[i] = np.linalg.lstsq(X[i], np.broadcast_to(y, X.shape[:-1])[i], rcond=None)[0]
            resid, sse = _residuals(X, y, beta)
            sse = np.where(np.isfinite(sse), sse, math.inf)
    return beta, sse, ldt, X, resid


def _residuals(X, y, beta):
    """y - X beta and its sum of squares, as stacked matmul."""
    resid = y - (X @ beta[..., None])[..., 0]
    return resid, (resid[..., None, :] @ resid[..., :, None])[..., 0, 0]


def _polish(z, span, rev, y, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Variable-projection Gauss-Newton from each row's point z = (u, m, omega): the polished points, their sse and beta.

    Row i fits y[i] on the basis at dt = u * span[i] + rev[i]. Each step
    differentiates the basis at the current beta, D = (dX/d(u, m, omega)) beta,
    takes Kaufman's Jacobian of the projected residual J = -(D - X solve(G, X'D)),
    G = X'X, and the Gauss-Newton step -solve(J'J, J'r); a coordinate that step
    would take out of the box is held at its bound and the others solved again,
    and the trial point is clipped to the box. A row keeps a step only if its
    sse falls, and stops at the first refused step, at a singular G or J'J,
    after a relative gain of at most _POLISH_GAIN or after _POLISH_STEPS steps.
    The sse and beta of a row are those of _linear_fit at its kept point,
    which is the whole fit there. Stacked matmul and gufunc solves only, so
    every row is bit-identical to polishing it alone.
    """
    z = z.copy()
    dt = z[:, :1] * span + rev
    beta, sse, ldt, X, resid = _linear_fit(dt, y, z[:, 1:2], z[:, 2:3])
    kept = beta.copy()
    live = np.arange(len(z))
    for _ in range(_POLISH_STEPS):
        zl, spanl = z[live], span[live]
        m, omega = zl[:, 1:2], zl[:, 2:3]
        # the basis columns dt^m, dt^m cos(omega ldt) and dt^m sin(omega ldt)
        pw, pc, ps = X[..., 1], X[..., 2], X[..., 3]
        F = beta[:, 1:2] * pw + beta[:, 2:3] * pc + beta[:, 3:4] * ps
        H = beta[:, 3:4] * pc - beta[:, 2:3] * ps
        D = np.empty(F.shape + (3,))
        D[..., 0] = spanl * (m * F + omega * H) / dt
        D[..., 1] = ldt * F
        D[..., 2] = ldt * H
        Xt = X.swapaxes(-1, -2)
        with np.errstate(all="ignore"):
            # a singular matrix leaves its own row NaN, the others untouched
            J = X @ _solve(Xt @ X, Xt @ D) - D
            Jt = J.swapaxes(-1, -2)
            JtJ, g = Jt @ J, -(Jt @ resid[..., None])[..., 0]
            full = zl + _solve(JtJ, g[..., None])[..., 0]
            # the rows of J'J for coordinates held at a bound become "move to the bound"
            held = np.clip(full, lo, hi)
            out = held != full
            JtJ = np.where(out[:, :, None], np.eye(3), JtJ)
            g = np.where(out, held - zl, g)
            step = _solve(JtJ, g[..., None])[..., 0]
        ok = np.isfinite(step).all(axis=1)
        trial = np.clip(zl[ok] + step[ok], lo, hi)
        rows = live[ok]
        dt = trial[:, :1] * span[rows] + rev[rows]
        beta, new, ldt, X, resid = _linear_fit(dt, y[rows], trial[:, 1:2], trial[:, 2:3])
        old = sse[rows]
        better = new < old
        z[rows[better]], sse[rows[better]], kept[rows[better]] = trial[better], new[better], beta[better]
        go = better & (old - new > _POLISH_GAIN * old)
        live = rows[go]
        if not live.size:
            break
        dt, beta, ldt, X, resid = dt[go], beta[go], ldt[go], X[go], resid[go]
    return z, sse, kept


def _latin_hypercube(n: int, d: int, seed: int) -> np.ndarray:
    """n points in [0, 1)^d, one in each of n strata per axis: scipy's qmc.LatinHypercube(d, seed=seed).random(n)."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - u) / n


def _simplex(z0, lo, hi, max_iter: int):
    """Bounded Nelder-Mead as an ask/tell generator.

    Yields each point to evaluate, as a list of floats, and is sent that
    point's objective value; returns (x, f, converged, iterations). It
    transcribes scipy 1.17's minimize(method="Nelder-Mead", bounds=...,
    options={"maxiter": max_iter, "fatol": _FATOL, "xatol": _XATOL}) for a
    finite start and box: the same moves, clipping and vertex order, so the
    same objective values give bit-identical points. converged means the
    tolerance test stopped the descent before max_iter iterations.
    """
    lo, hi = [float(v) for v in lo], [float(v) for v in hi]

    def clip(x):
        # np.clip's comparisons: on a tie the bound wins
        return [min(h, max(l, v)) for v, l, h in zip(x, lo, hi)]

    x0 = clip(float(v) for v in z0)
    N = len(x0)
    sim = [x0]
    for k in range(N):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        # a step past the upper bound is reflected into the box
        sim.append(clip(2 * h - v if v > h else v for v, h in zip(y, hi)))
    fsim = []
    for x in sim:
        fsim.append((yield x))

    def order():
        if len(set(fsim)) == len(fsim) and all(f == f for f in fsim):
            ind = sorted(range(len(fsim)), key=fsim.__getitem__)
        else:  # a tie or a NaN: np.argsort's default kind, whose order of tied values is scipy's
            ind = np.argsort(fsim).tolist()
        return [sim[i] for i in ind], [fsim[i] for i in ind]

    sim, fsim = order()
    iterations = 1
    while iterations < max_iter:
        best = sim[0]
        if all(abs(v - b) <= _XATOL for x in sim[1:] for v, b in zip(x, best)) and all(
            abs(fsim[0] - f) <= _FATOL for f in fsim[1:]
        ):
            break
        # the centroid of all but the worst vertex, summed in vertex order
        xbar = [sum(c[1:], c[0]) / N for c in zip(*sim[:-1])]
        worst = sim[-1]
        xr = [min(h, max(l, 2 * c - w)) for c, w, l, h in zip(xbar, worst, lo, hi)]  # reflection
        fxr = yield xr
        if fxr < fsim[0]:
            xe = [min(h, max(l, 3 * c - 2 * w)) for c, w, l, h in zip(xbar, worst, lo, hi)]  # expansion
            fxe = yield xe
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = [min(h, max(l, 1.5 * c - 0.5 * w)) for c, w, l, h in zip(xbar, worst, lo, hi)]  # outside contraction
                fxc = yield xc
                accept = fxc <= fxr
            else:
                xc = [min(h, max(l, 0.5 * c + 0.5 * w)) for c, w, l, h in zip(xbar, worst, lo, hi)]  # inside contraction
                fxc = yield xc
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # every vertex halfway towards the best
                for j in range(1, N + 1):
                    sim[j] = [min(h, max(l, b + 0.5 * (v - b))) for v, b, l, h in zip(sim[j], best, lo, hi)]
                    fsim[j] = yield sim[j]
        iterations += 1
        sim, fsim = order()
    return sim[0], fsim[0], iterations < max_iter, iterations


def sign_of(B: float) -> str:
    if B < 0:
        return POSITIVE_BUBBLE
    if B > 0:
        return NEGATIVE_BUBBLE
    return NO_SIGN


def qualify(fit: FitResult, filters: FilterConfig) -> FitResult:
    """The fit judged by every filter: qualified, the failed conditions and each check's outcome."""
    p = fit.params
    w = fit.window
    checks: dict[str, bool] = {}
    checks["m_in_range"] = filters.m_range[0] < p.m < filters.m_range[1]
    checks["omega_in_range"] = filters.omega_range[0] < p.omega < filters.omega_range[1]
    horizon = filters.tc_horizon * w.length
    checks["tc_within_horizon"] = w.t2 < p.t_c < w.t2 + horizon
    if p.t_c > w.t2:
        n_osc = oscillation_count(p.omega, p.t_c, w.t1, w.t2)
    else:
        n_osc = 0.0
    checks["enough_oscillations"] = n_osc >= filters.min_oscillations
    if filters.max_rmse is not None:
        checks["rmse_below_max"] = fit.rmse <= filters.max_rmse
    if filters.min_line_gain is not None and fit.sse_line is not None:
        checks["beats_trend_line"] = fit.sse <= (1.0 - filters.min_line_gain) * fit.sse_line
    failures = tuple(name for name, ok in checks.items() if not ok)
    return replace(fit, qualified=not failures, failures=failures, checks=checks)


def fit_window(
    series: PriceSeries,
    window: FitWindow,
    config: SearchConfig = SearchConfig(),
    filters: FilterConfig = FilterConfig(),
    seed: int = 0,
) -> FitResult:
    """Best-sse calibration of the window: seeded screen, two descents, then their polish.

    Deterministic: identical (series, window, config, filters, seed) give a
    bit-identical result. Ties between equal-sse screen points or descents go
    to the lowest screen index. The one-window call of _fit_windows. The
    window must be the one slice_window resolves from its [t1, t2], of at
    least 7 points (the LPPL parameters); any other is a WindowError.
    """
    _check_window(series, window)
    fit = _fit_windows(series, [window], config, filters, [seed])[0]
    if isinstance(fit, FitError):
        raise fit
    return fit


def _fit_windows(series, windows, config, filters, seeds) -> list[FitResult | FitError]:
    """fit_window of every window with its seed; a failed window's FitError stands in its place.

    Windows with the same number of points are fitted together: their
    descents run in lockstep, and each step scores every live descent's next
    point in one kernel call. Every result is bit-identical to fit_window on
    its own window.
    """
    groups: dict[int, list[int]] = {}
    for i, window in enumerate(windows):
        groups.setdefault(window.n_points, []).append(i)
    fits = [None] * len(windows)
    for n, idx in groups.items():
        # a group's descent step scores at most about _BATCH_ROWS basis rows
        size = max(1, _BATCH_ROWS // (_DESCENTS * n))
        for part in (idx[i:i + size] for i in range(0, len(idx), size)):
            group = _fit_group(series, [windows[i] for i in part], config, filters, [seeds[i] for i in part])
            for i, fit in zip(part, group):
                fits[i] = fit
    return fits


def _fit_group(series, windows, config, filters, seeds) -> list[FitResult | FitError]:
    """Calibration of windows with equal n_points: a screen per window, then all descents in lockstep."""
    tt = np.stack([w.times(series) for w in windows])
    y = np.stack([w.log_prices(series) for w in windows])
    n = tt.shape[1]

    # normalized coordinates: z = (u, m, omega), t_c = t2 + u * span
    lo = np.array([_TC_MARGIN, filters.m_range[0], filters.omega_range[0]])
    hi = np.array([1.0, filters.m_range[1], filters.omega_range[1]])
    span = np.array([[filters.tc_horizon * w.length] for w in windows])

    # scale-invariant normalization so fatol means relative sse
    scale = np.array([v * n if v > 0 else 1.0 for v in (float(np.var(row)) for row in y)])

    # time measured backwards from the window end: invariant under shifting
    # all timestamps, which makes the whole search path translation-exact
    rev = np.stack([w.t2 - row for w, row in zip(windows, tt)])

    # each window's screen, scored in batches of about _BATCH_ROWS basis
    # rows, which bounds the screen's memory; only its two best points stay
    rows = max(1, _BATCH_ROWS // n)
    starts, descents = [], []
    for w, seed in enumerate(seeds):
        screen = lo + _latin_hypercube(_SCREEN_PER_START * config.n_starts, 3, int(seed)) * (hi - lo)
        screen_sse = np.concatenate([
            _linear_fit(z[:, :1] * span[w] + rev[w], y[w], z[:, 1:2], z[:, 2:3])[1]
            for z in (screen[i:i + rows] for i in range(0, len(screen), rows))
        ])
        best = np.argsort(screen_sse / scale[w], kind="stable")[:_DESCENTS]
        starts += best.tolist()
        descents += [_simplex(screen[i], lo, hi, config.max_iter) for i in best]
    owner = np.repeat(np.arange(len(windows)), _DESCENTS)  # descent i belongs to window owner[i]

    # every descent in lockstep: one kernel call scores each live descent's
    # next point, on its own window's times and log-prices
    points = [next(d) for d in descents]
    ends = [None] * len(descents)
    live = list(range(len(descents)))
    while live:
        # the live descents' window rows, gathered again only when a descent ends
        own = owner[live]
        span_l, rev_l, y_l, scale_l = span[own], rev[own], y[own], scale[own]
        while all(ends[i] is None for i in live):
            z = np.array([points[i] for i in live])
            sse = _linear_fit(z[:, :1] * span_l + rev_l, y_l, z[:, 1:2], z[:, 2:3])[1]
            for i, f in zip(live, (sse / scale_l).tolist()):
                try:
                    points[i] = descents[i].send(f)
                except StopIteration as stop:
                    ends[i] = stop.value
        live = [i for i in live if ends[i] is None]

    # every descent end, Gauss-Newton polished in one batch; the polish's
    # solve at its point is that descent's fit, and a failed end keeps sse inf
    z, sse, beta = _polish(np.array([end[0] for end in ends]), span[owner], rev[owner], y[owner], lo, hi)
    f = sse / scale[owner]
    done = np.isfinite(f)

    fits = []
    for w, window in enumerate(windows):
        own = slice(_DESCENTS * w, _DESCENTS * (w + 1))
        if not done[own].any():
            diagnostics = [{"start": i, "sse": end[1], "converged": end[2]} for i, end in zip(starts[own], ends[own])]
            message = f"every descent failed to produce a finite fit on [{window.t1}, {window.t2}]"
            fits.append(FitError(message, diagnostics))
            continue
        # argmin keeps the first of equal scaled sse, the descent from the better screen point
        k = own.start + int(np.argmin(f[own]))
        u, m, omega = z[k].tolist()
        A, B, c1, c2 = beta[k].tolist()
        params = LpplParams.from_linear(window.t2 + u * float(span[w, 0]), m, omega, A, B, c1, c2)
        line = np.polynomial.polynomial.polyfit(tt[w] - tt[w, 0], y[w], 1)
        line_resid = y[w] - np.polynomial.polynomial.polyval(tt[w] - tt[w, 0], line)
        fit = FitResult(
            params=params,
            window=window,
            sse=float(sse[k]),
            rmse=math.sqrt(sse[k] / n),
            n_points=n,
            qualified=False,
            sign=sign_of(B),
            sse_line=float(line_resid @ line_resid),
        )
        fits.append(qualify(fit, filters))
    return fits
