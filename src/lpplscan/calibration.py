"""Window calibration.

The seven model parameters split into four exactly linear ones (A, B, C1, C2)
and three nonlinear ones (t_c, m, omega). The linear block is solved by least
squares inside the objective, so the outer search runs over (t_c, m, omega)
only: a Latin-hypercube screen, then Nelder-Mead from its two best points,
then a variable-projection Gauss-Newton polish of each descent's end (Golub
& Pereyra 1973, with Kaufman's 1975 Jacobian). Every stage solves in
unit-free time. With s = tc_horizon * length, the window's t_c span, its
search coordinate is u = (t_c - t2) / s and its basis is taken at
d = (t_c - t) / s = u + r, where r = (t2 - t) / s is built once per window.
So d lies in [u, u + 1 / tc_horizon] whatever the time unit, and a fit is
the same in days, seconds or steps of 1e-300. The basis's power column is
expm1(m ln d) (model._basis), so its coefficients are [A + B, B, C1, C2] of
the curve in d. Only _assemble converts back, once per fit: t_c = t2 + u s,
A = beta0 - beta1, B and C scale by s^-m and phi shifts by omega ln s.
The screen is scored in two
stages (_screen_best), a cheap low-precision pass and an exact check (Higham
& Mary, "Mixed precision algorithms in numerical linear algebra", 2022): a
pre-score, the least-squares sse on a basis with float32 cos and sin, ranks
every point, and only its leaders, the points within a relative 1e-3 of the
second-best pre-score, are scored again exactly. A pre-score that is not
finite, or a leader whose pre-score lies further than 1e-3 from its exact
sse, sends the window to the all-exact screen. Either way its two best
points are those of the all-exact screen. The Nelder-Mead is an in-house
ask/tell simplex (`_simplex`), a bit-exact transcription of scipy's bounded
one written out for the three coordinates, so numpy is the only run-time
dependency; it stops at loose tolerances, and the polish (`_polish`) takes
each end to the optimum in a few steps, halving a refused step a few times
before it gives up. _fit_windows calibrates in two
phases. First, every window of the call (a pooled scan process's whole
share) with the same seed, times back from its end and span to 12
significant digits, as the end dates of one window length on a regular grid
have, shares one screen: one basis and one X'X per batch of screen points,
solved for all their log-prices at once (one factorization for many
right-hand sides), pre-scored at the share's first r, with the residuals of
a chunk of windows at a time so that at most about 4 * _BATCH_ROWS exist at
once, and scored exactly at each window's own r. Then the windows with the
same number of points are fitted in lockstep parts of at most about
_BATCH_ROWS basis rows per step, each part's rows gathered once into a
_Batch and taken through four phases:
_descend (one kernel call per step scores every live descent's next point),
_polish, _trend_lines and _assemble (a window's fit is the polish's solve at
its best end). That kernel, _linear_fit, re-solves only a singular row by
lstsq and warns of nothing; every row of a batch is bit-identical to a
one-row call, so a window's fit does not depend on the windows fitted with it.
The outer search runs in these coordinates anchored at the window end,
which makes results exactly invariant under price scaling and time
translation.
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
_SHARED_CELLS = 1 << 17  # pre-scores (points x windows), and log-prices (windows x n), a shared screen holds at once
# relative sse error the screen's float32-trig pre-score may have; its leaders
# are re-scored exactly, and a larger error seen there falls back to the exact screen
_PRESCORE_TOL = 1e-3
# the simplex stops once its vertices agree to _XATOL in (u, m, omega) and
# _FATOL in scaled sse; the Gauss-Newton polish then takes each descent end to
# the optimum, so scaled prices and shifted times land on the same point
_FATOL = 1e-9
_XATOL = 1e-5
_POLISH_STEPS = 8
_POLISH_HALVINGS = 3  # times a refused polish step is halved before it ends the row
_POLISH_GAIN = 1e-15  # relative sse gain at or below which a polish step ends the row


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class SearchConfig:
    """Effort of the (t_c, m, omega) search: a Latin-hypercube screen of
    50 * n_starts points (n_starts <= 10,000), then two Nelder-Mead descents
    of at most max_iter iterations each, from the screen's two best points,
    each finished by at most 8 Gauss-Newton steps. The screen is pre-scored
    with float32 cos and sin and its leaders scored again exactly, which
    picks the same two points as scoring all of it exactly.
    """

    n_starts: int = 20
    max_iter: int = 400

    def __post_init__(self):
        if not (1 <= self.n_starts <= _MAX_STARTS and self.max_iter >= 1):
            raise DomainError(f"n_starts must lie in [1, {_MAX_STARTS}] and max_iter be >= 1")


@dataclass(frozen=True, slots=True)
class FitResult:
    params: LpplParams
    window: FitWindow
    sse: float
    rmse: float
    n_points: int
    qualified: bool
    sign: str
    sse_line: float | None = None  # sse of the window's least-squares trend line, for the line-gain filter
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
                name: {"passed": bool(passed), "failed": name in self.failures}
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
    # solved in the unit-free d = (t_c - t) / length, as the fits are
    d = (t_c - window.times(series)) / window.length
    beta, sse = _linear_fit(d[None], window.log_prices(series), m, omega)[:2]
    if not math.isfinite(sse[0]):
        raise FitError(f"linear solve produced non-finite coefficients at t_c={t_c}")
    p = _params(t_c, m, omega, beta[0], window.length)
    return p.A, p.B, p.c1, p.c2, float(sse[0])


def _params(t_c, m, omega, beta, scale) -> LpplParams:
    """The parameters of the curve whose coefficients on model._basis at d = (t_c - t) / scale are beta.

    d^m = (t_c - t)^m scale^-m and w ln d = w ln(t_c - t) - w ln scale, so
    A = beta0 - beta1, B and C scale by scale^-m and (C1, C2) turn by w ln scale.
    A FitError if B or C overflows or underflows in the series' time unit, as
    at an m far above 1 there.
    """
    b0, b1, b2, b3 = beta.tolist()
    with np.errstate(all="ignore"):
        shrink = float(np.power(scale, -m))
    turn = omega * math.log(scale)
    cos, sin = math.cos(turn) * shrink, math.sin(turn) * shrink
    p = LpplParams.from_linear(t_c, m, omega, b0 - b1, b1 * shrink, b2 * cos - b3 * sin, b2 * sin + b3 * cos)
    if not (shrink > 0 and math.isfinite(p.B) and math.isfinite(p.C)):
        raise FitError(f"B and C at t_c={t_c}, m={m} overflow or underflow in the series' time unit")
    return p


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


def _linear_fit(d: np.ndarray, y: np.ndarray, m, omega):
    """Least-squares beta of y on model._basis at d > 0: beta, sse, ln(d), basis X, residuals.

    The one exact linear solve of calibration: the screen's exact scores,
    the descents, the polish (whose solve is the fit) and solve_linear all
    go through it; only the screen's pre-score solves on its own. A
    batch of P points passes d of shape (P, n), with m and omega scalars or
    (P, 1) columns; y is one window's (n,) log-prices or a (P, n) row per
    point. beta has shape (P, 4) and sse shape (P,). Every row is
    bit-identical to its one-row call: stacked matmul runs the same BLAS
    kernels per row (einsum does not).
    Normal equations; only a row whose X'X is singular is re-solved, by
    minimum-norm lstsq. An overflowed basis gets sse inf; nothing warns.
    """
    with np.errstate(all="ignore"):
        ld, X = _basis(d, m, omega)
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
    return beta, sse, ld, X, resid


def _residuals(X, y, beta):
    """y - X beta and its sum of squares, as stacked matmul."""
    resid = y - (X @ beta[..., None])[..., 0]
    return resid, (resid[..., None, :] @ resid[..., :, None])[..., 0, 0]


def _polish(z, r, y, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Variable-projection Gauss-Newton from each row's point z = (u, m, omega): the polished points, their sse and beta.

    Row i fits y[i] on the basis at d = u + r[i]. Each step differentiates
    the basis at the current beta, D = (dX/d(u, m, omega)) beta, takes
    Kaufman's Jacobian of the projected residual J = -(D - X solve(G, X'D)),
    G = X'X, and the Gauss-Newton step -solve(J'J, J'r); a coordinate that
    step would take out of the box is held at its bound and the others solved
    again, and the trial point is clipped to the box. A row keeps a step only
    if its sse falls; a step that raises it by more than _POLISH_GAIN
    relative, or makes it non-finite, is halved up to _POLISH_HALVINGS
    times, and the row stops when none of them is kept, at a singular G or J'J,
    after a relative gain of at most _POLISH_GAIN or after _POLISH_STEPS
    steps. The sse and beta of a row are those of _linear_fit at its kept
    point, which is the whole fit there. Stacked matmul and gufunc solves
    only, so every row is bit-identical to polishing it alone.
    """
    z = z.copy()
    # the kernel's outputs at each row's kept point, updated row by row as steps are kept
    beta, sse, ld, X, resid = _linear_fit(z[:, :1] + r, y, z[:, 1:2], z[:, 2:3])
    live = np.arange(len(z))
    # every step, its Jacobian included: an overflowed row goes non-finite silently
    with np.errstate(all="ignore"):
        for _ in range(_POLISH_STEPS):
            zl, bl, Xl = z[live], beta[live], X[live]
            m, omega = zl[:, 1:2], zl[:, 2:3]
            # the basis's d^m, d^m cos(omega ln d) and d^m sin(omega ln d)
            pw, pc, ps = Xl[..., 1] + 1.0, Xl[..., 2], Xl[..., 3]
            F = bl[:, 1:2] * pw + bl[:, 2:3] * pc + bl[:, 3:4] * ps
            H = bl[:, 3:4] * pc - bl[:, 2:3] * ps
            D = np.empty(F.shape + (3,))
            D[..., 0] = (m * F + omega * H) / (zl[:, :1] + r[live])
            D[..., 1] = ld[live] * F
            D[..., 2] = ld[live] * H
            Xt = Xl.swapaxes(-1, -2)
            # a singular matrix leaves its own row NaN, the others untouched
            J = Xl @ _solve(Xt @ Xl, Xt @ D) - D
            Jt = J.swapaxes(-1, -2)
            JtJ, g = Jt @ J, -(Jt @ resid[live][..., None])[..., 0]
            full = zl + _solve(JtJ, g[..., None])[..., 0]
            # the rows of J'J for coordinates held at a bound become "move to the bound"
            held = np.clip(full, lo, hi)
            out = held != full
            JtJ = np.where(out[:, :, None], np.eye(3), JtJ)
            g = np.where(out, held - zl, g)
            step = _solve(JtJ, g[..., None])[..., 0]
            ok = np.isfinite(step).all(axis=1) & (step != 0).any(axis=1)
            rows, start, step = live[ok], zl[ok], step[ok]
            live = rows[:0]
            for _ in range(1 + _POLISH_HALVINGS):
                if not rows.size:
                    break
                trial = np.clip(start + step, lo, hi)
                fit = _linear_fit(trial[:, :1] + r[rows], y[rows], trial[:, 1:2], trial[:, 2:3])
                old, new = sse[rows], fit[1]
                better = new < old
                kept = rows[better]
                z[kept], sse[kept] = trial[better], new[better]
                beta[kept], ld[kept], X[kept], resid[kept] = (v[better] for v in fit[:1] + fit[2:])
                live = np.concatenate([live, kept[old[better] - new[better] > _POLISH_GAIN * old[better]]])
                # a step refused at the optimum, within rounding of its sse, is not tried shorter
                retry = ~(new - old <= _POLISH_GAIN * old)
                rows, start, step = rows[retry], start[retry], 0.5 * step[retry]
            if not live.size:
                break
    return z, sse, beta


def _screen_sse(z, r, y, owner) -> np.ndarray:
    """Exact sse of screen points z = (u, m, omega), point i on window owner[i] of the rows r and log-prices y (W, n).

    Scored in batches of about _BATCH_ROWS basis rows, each gathering its own points' rows of r and y; every
    sse is that of a one-row _linear_fit call.
    """
    rows = max(1, _BATCH_ROWS // y.shape[-1])
    return np.concatenate([np.empty(0)] + [
        _linear_fit(z[i:i + rows, :1] + r[own], y[own], z[i:i + rows, 1:2], z[i:i + rows, 2:3])[1]
        for i in range(0, len(z), rows) for own in [owner[i:i + rows]]
    ])


def _screen_prescore(z, r, y) -> np.ndarray:
    """Approximate sse, (points, windows), of screen points z on every row of y, windows that share r.

    One basis per batch of points, built with float32 cos and sin
    (model._basis), one X'X and one solve for all the windows' right-hand
    sides X'Y, and explicit residuals against that basis, formed for a
    chunk of windows at a time. A batch holds at most about _BATCH_ROWS
    basis rows and 4 * _BATCH_ROWS residuals, at least one window's. A
    singular or overflowed X'X leaves its point's sse NaN in every window.
    """
    n = y.shape[1]
    cols = max(1, 4 * _BATCH_ROWS // n)  # windows whose residuals one point may hold at once
    rows = max(1, min(_BATCH_ROWS, 4 * _BATCH_ROWS // min(len(y), cols)) // n)
    pre = np.empty((len(z), len(y)))
    with np.errstate(all="ignore"):
        for i in range(0, len(z), rows):
            part = z[i:i + rows]
            X = _basis(part[:, :1] + r, part[:, 1:2], part[:, 2:3], trig32=True)[1]
            Xt = X.swapaxes(-1, -2)
            beta = _solve(Xt @ X, Xt @ y.T)
            for j in range(0, len(y), cols):
                resid = X @ beta[..., j:j + cols]
                np.subtract(y[j:j + cols].T, resid, out=resid)
                resid *= resid
                pre[i:i + rows, j:j + cols] = resid.sum(axis=1)
    return pre


def _screen_best(z, r, y, scale) -> np.ndarray:
    """Per row of y, the indices of the _DESCENTS screen points of least exact sse / scale, ties to the lower index.

    The rows, a list, are windows whose rows of r, a list, are equal but for
    their last bits, so they share the screen's basis: the pre-score is
    taken at the first r, every exact sse at the window's own. Two stages.
    The pre-score (_screen_prescore) ranks every point for every window; each
    window's leaders, the points within a relative _PRESCORE_TOL margin of its
    second-best pre-score, are scored again exactly, all windows' in one batch,
    and their best two are the result. If every pre-score lies within
    _PRESCORE_TOL of its exact sse, the exact best two are among the leaders,
    so the result is that of the exact screen. A window whose pre-scores are
    not all finite, or whose leaders' exact sse is not finite or differs from
    its pre-score by more than _PRESCORE_TOL, has its own screen scored
    exactly instead. The windows are taken in blocks of at most about
    _SHARED_CELLS pre-scores and as many log-prices.
    """
    width = max(1, _SHARED_CELLS // max(len(z), y[0].shape[-1]))
    best = np.empty((len(y), _DESCENTS), dtype=np.intp)
    for c in range(0, len(y), width):
        block, block_r, block_scale = np.stack(y[c:c + width]), np.stack(r[c:c + width]), scale[c:c + width]
        pre = _screen_prescore(z, r[0], block)
        second = np.partition(pre, _DESCENTS - 1, axis=0)[_DESCENTS - 1]
        # every window's leaders, window by window, each window's in index order
        owner, lead = np.nonzero((pre <= second * (1 + _PRESCORE_TOL) / (1 - _PRESCORE_TOL)).T)
        exact = _screen_sse(z[lead], block_r, block, owner)
        held = np.isfinite(exact) & (np.abs(exact - pre[lead, owner]) <= _PRESCORE_TOL * exact)
        for w, col in enumerate(pre.T):
            own = owner == w
            if np.isfinite(col).all() and held[own].all():
                points, sse = lead[own], exact[own]
            else:  # the guard tripped: this window's whole screen, scored exactly
                points, sse = np.arange(len(z)), _screen_sse(z, block_r, block, np.full(len(z), w))
            best[c + w] = points[np.argsort(sse / block_scale[w], kind="stable")[:_DESCENTS]]
    return best


def _latin_hypercube(n: int, d: int, seed: int) -> np.ndarray:
    """n points in [0, 1)^d, one in each of n strata per axis: scipy's qmc.LatinHypercube(d, seed=seed).random(n)."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - u) / n


def _simplex(z0, lo, hi, max_iter: int):
    """Bounded Nelder-Mead over the three search coordinates (u, m, omega), as an ask/tell generator.

    Yields each point to evaluate, as a list of three floats, and is sent
    that point's objective value; returns (x, f, converged, iterations). It
    transcribes scipy 1.17's minimize(method="Nelder-Mead", bounds=...,
    options={"maxiter": max_iter, "fatol": _FATOL, "xatol": _XATOL}) for a
    finite start and box, unrolled for three coordinates: the same moves,
    clipping, float operations in the same order and vertex order, so the
    same objective values give bit-identical points. Two shortcuts keep
    that: a coordinate is clipped by comparisons, not min and max calls, and
    after a move other than a shrink the new vertex is inserted among the
    three kept ones when their values strictly increase and its value equals
    none of them, so that its place is unique (last if it is NaN, as
    np.argsort puts it); otherwise _simplex_order sorts all four as scipy
    does.
    converged means the tolerance test stopped the descent before max_iter
    iterations.
    """
    l0, l1, l2 = (float(v) for v in lo)
    h0, h1, h2 = (float(v) for v in hi)
    u, m, w = (float(v) for v in z0)
    # np.clip's comparisons: on a tie the bound wins
    x0 = [min(h0, max(l0, u)), min(h1, max(l1, m)), min(h2, max(l2, w))]
    sim = [x0]
    for k, (l, h) in enumerate(zip((l0, l1, l2), (h0, h1, h2))):
        y = list(x0)
        v = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        # a step past the upper bound is reflected into the box
        y[k] = min(h, max(l, 2 * h - v if v > h else v))
        sim.append(y)
    fsim = []
    for x in sim:
        fsim.append((yield x))

    sim, fsim = _simplex_order(sim, fsim)
    iterations = 1
    while iterations < max_iter:
        (b0, b1, b2), (p0, p1, p2), (q0, q1, q2), (w0, w1, w2) = sim
        f0, f1, f2, f3 = fsim
        if (abs(p0 - b0) <= _XATOL and abs(p1 - b1) <= _XATOL and abs(p2 - b2) <= _XATOL
                and abs(q0 - b0) <= _XATOL and abs(q1 - b1) <= _XATOL and abs(q2 - b2) <= _XATOL
                and abs(w0 - b0) <= _XATOL and abs(w1 - b1) <= _XATOL and abs(w2 - b2) <= _XATOL
                and abs(f0 - f1) <= _FATOL and abs(f0 - f2) <= _FATOL and abs(f0 - f3) <= _FATOL):
            break
        # the centroid of all but the worst vertex, summed in vertex order
        c0, c1, c2 = (b0 + p0 + q0) / 3, (b1 + p1 + q1) / 3, (b2 + p2 + q2) / 3
        # each move clips a coordinate v to the box as min(h, max(l, v)) would, by comparisons
        v0, v1, v2 = 2 * c0 - w0, 2 * c1 - w1, 2 * c2 - w2
        xr = [(v0 if v0 < h0 else h0) if v0 > l0 else l0, (v1 if v1 < h1 else h1) if v1 > l1 else l1,
              (v2 if v2 < h2 else h2) if v2 > l2 else l2]
        x = xr
        f = fxr = yield xr  # reflection
        if fxr < f0:
            v0, v1, v2 = 3 * c0 - 2 * w0, 3 * c1 - 2 * w1, 3 * c2 - 2 * w2
            xe = [(v0 if v0 < h0 else h0) if v0 > l0 else l0, (v1 if v1 < h1 else h1) if v1 > l1 else l1,
                  (v2 if v2 < h2 else h2) if v2 > l2 else l2]
            fxe = yield xe  # expansion
            if fxe < fxr:
                x, f = xe, fxe
        elif not fxr < f2:
            outside = fxr < f3
            if outside:
                v0, v1, v2 = 1.5 * c0 - 0.5 * w0, 1.5 * c1 - 0.5 * w1, 1.5 * c2 - 0.5 * w2
            else:
                v0, v1, v2 = 0.5 * c0 + 0.5 * w0, 0.5 * c1 + 0.5 * w1, 0.5 * c2 + 0.5 * w2
            xc = [(v0 if v0 < h0 else h0) if v0 > l0 else l0, (v1 if v1 < h1 else h1) if v1 > l1 else l1,
                  (v2 if v2 < h2 else h2) if v2 > l2 else l2]
            fxc = yield xc  # outside or inside contraction
            if (fxc <= fxr) if outside else (fxc < f3):
                x, f = xc, fxc
            else:  # every vertex halfway towards the best
                for j, (a0, a1, a2) in ((1, (p0, p1, p2)), (2, (q0, q1, q2)), (3, (w0, w1, w2))):
                    v0, v1, v2 = b0 + 0.5 * (a0 - b0), b1 + 0.5 * (a1 - b1), b2 + 0.5 * (a2 - b2)
                    sim[j] = [(v0 if v0 < h0 else h0) if v0 > l0 else l0, (v1 if v1 < h1 else h1) if v1 > l1 else l1,
                              (v2 if v2 < h2 else h2) if v2 > l2 else l2]
                    fsim[j] = yield sim[j]
                iterations += 1
                sim, fsim = _simplex_order(sim, fsim)
                continue
        iterations += 1
        # x replaces the worst vertex. When the three kept values strictly
        # increase and f equals none of them, the order is unique, a NaN f
        # last: x is inserted there. Otherwise _simplex_order sorts all four.
        b, p, q = sim[0], sim[1], sim[2]
        if f0 < f1 < f2 and f != f0 and f != f1 and f != f2:
            if f < f1:
                sim, fsim = ([x, b, p, q], [f, f0, f1, f2]) if f < f0 else ([b, x, p, q], [f0, f, f1, f2])
            else:
                sim, fsim = ([b, p, x, q], [f0, f1, f, f2]) if f < f2 else ([b, p, q, x], [f0, f1, f2, f])
        else:
            sim, fsim = _simplex_order([b, p, q, x], [f0, f1, f2, f])
    return sim[0], fsim[0], iterations < max_iter, iterations


def _simplex_order(sim, fsim):
    """The four vertices and their values, best first: sorted if the values differ and none is NaN, else np.argsort."""
    f0, f1, f2, f3 = fsim
    if (f0 != f1 and f0 != f2 and f0 != f3 and f1 != f2 and f1 != f3 and f2 != f3
            and f0 == f0 and f1 == f1 and f2 == f2 and f3 == f3):
        ind = sorted(range(4), key=fsim.__getitem__)
    else:  # a tie or a NaN: np.argsort's default kind, whose order of tied values is scipy's
        ind = np.argsort(fsim).tolist()
    return [sim[i] for i in ind], [fsim[i] for i in ind]


def sign_of(B: float) -> str:
    if B < 0:
        return POSITIVE_BUBBLE
    if B > 0:
        return NEGATIVE_BUBBLE
    return NO_SIGN


def _read_only(self, *args, **kwargs):
    raise TypeError("a fit's checks are read-only: every fit judged alike shares them")


class _Checks(dict):
    """A judged fit's checks: a dict that refuses every change, since fits judged alike share one."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = update = pop = popitem = setdefault = clear = _read_only

    def __new__(cls, *args, **kwargs):
        # a mapping built from this one, as dataclasses.asdict builds, is a plain dict again
        return dict(*args, **kwargs)

    def __reduce__(self):
        # pickle and deepcopy give back the shared mapping of this outcome
        return _shared_checks, (tuple(self.items()),)


# the (checks, failures) of every verdict so far, keyed by its ordered (name,
# passed) pairs and the types of the outcomes: bool and numpy.bool_ compare
# equal but print apart, and numpy parameters give numpy bools. Only bool
# outcomes are kept, so there are at most 2^6 per set of names and types.
_VERDICTS: dict[tuple, tuple[_Checks, tuple[str, ...]]] = {}
_BOOLS = frozenset((bool, np.bool_))


def _verdict(items: tuple) -> tuple[_Checks, tuple[str, ...]]:
    """The read-only checks and the failures tuple that every fit with these (name, passed) pairs shares."""
    types = tuple([type(ok) for _, ok in items])
    key = (items, types) if _BOOLS.issuperset(types) else None
    verdict = _VERDICTS.get(key)  # None is never a key
    if verdict is None:
        checks = dict.__new__(_Checks)
        dict.update(checks, items)
        verdict = checks, tuple(name for name, ok in items if not ok)
        if key is not None:
            verdict = _VERDICTS.setdefault(key, verdict)
    return verdict


def _shared_checks(items: tuple) -> _Checks:
    return _verdict(items)[0]


def qualify(fit: FitResult, filters: FilterConfig) -> FitResult:
    """The fit judged by every filter: qualified, the failed conditions and each check's outcome.

    `checks`, a read-only dict (changing it raises TypeError), and the
    `failures` tuple are the very objects of every other fit with the same
    outcome, so a stored ensemble holds one of each per outcome; pickle and
    deepcopy of `checks` give back the shared one. Its values keep the type
    the comparisons gave: numpy bools for numpy parameters.
    """
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
    checks, failures = _verdict(tuple(checks.items()))
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

    The shared screens (_screen_best), then each lockstep part's four phases,
    as the module docstring describes. Each window's two starts are those of
    its own all-exact screen, and every result is bit-identical to fit_window
    on its own window.
    """
    # normalized coordinates z = (u, m, omega); every kernel call sees only d = u + r
    lo = np.array([_TC_MARGIN, filters.m_range[0], filters.omega_range[0]])
    hi = np.array([1.0, filters.m_range[1], filters.omega_range[1]])
    y = [w.log_prices(series) for w in windows]
    # scale-invariant normalization so fatol means relative sse
    scale = np.array([v * len(row) if (v := float(np.var(row))) > 0 else 1.0 for row in y])

    # one screen per seed, times back from the window end (invariant under shifting all timestamps, so the
    # search path is translation-exact) and span to 12 digits: t2 - (t2 - L) may differ from L in its last bit
    shared: dict[tuple, list[int]] = {}
    r = []
    for i, (w, seed) in enumerate(zip(windows, seeds)):
        back, span = w.t2 - w.times(series), filters.tc_horizon * w.length
        r.append(back / span)
        shared.setdefault((int(seed), f"{span:.12g}", back.tobytes()), []).append(i)
    best = np.empty((len(windows), _DESCENTS), dtype=np.intp)
    first = np.empty((len(windows), _DESCENTS, 3))
    groups: dict[int, list[int]] = {}  # the windows of each n_points, which descend in lockstep
    for (seed, *_), ws in shared.items():
        screen = lo + _latin_hypercube(_SCREEN_PER_START * config.n_starts, 3, seed) * (hi - lo)
        best[ws] = _screen_best(screen, [r[i] for i in ws], [y[i] for i in ws], scale[ws])
        first[ws] = screen[best[ws]]
        groups.setdefault(windows[ws[0]].n_points, []).extend(ws)

    fits = [None] * len(windows)
    for n, idx in groups.items():
        size = max(1, _BATCH_ROWS // (_DESCENTS * n))
        for part in (idx[i:i + size] for i in range(0, len(idx), size)):
            ws = [windows[i] for i in part]
            batch = _Batch(scale[part], np.stack([w.times(series) for w in ws]), np.stack([r[i] for i in part]),
                           np.stack([y[i] for i in part]))
            ends = _descend(batch, first[part], lo, hi, config.max_iter)
            # every descent end, Gauss-Newton polished in one batch; the polish's
            # solve at its point is that descent's fit, and a failed end keeps sse inf
            own = np.repeat(np.arange(len(part)), _DESCENTS)
            polished = _polish(np.array([end[0] for end in ends]), batch.r[own], batch.y[own], lo, hi)
            for i, fit in zip(part, _assemble(ws, batch, best[part], ends, polished, _trend_lines(batch), filters)):
                fits[i] = fit
    return fits


@dataclass(frozen=True, slots=True)
class _Batch:
    """The rows of W windows with equal n_points: sse scale (W,), and times, r and y (W, n)."""

    scale: np.ndarray
    times: np.ndarray
    r: np.ndarray  # times back from the window end, in units of tc_horizon * length
    y: np.ndarray  # log-prices


def _descend(batch, first, lo, hi, max_iter) -> list:
    """The ends (x, f, converged, iterations) of the simplex descents from first (W, _DESCENTS, 3), window by window.

    They run in lockstep: one kernel call per step scores each live descent's next point, on its window's row.
    """
    descents = [_simplex(z, lo, hi, max_iter) for z in first.reshape(-1, 3)]
    points = [next(d) for d in descents]
    ends = [None] * len(descents)
    live = list(range(len(descents)))
    while live:
        # the live descents' window rows, gathered again only when a descent ends
        own = np.array(live) // _DESCENTS
        r, y, scale = batch.r[own], batch.y[own], batch.scale[own]
        ended = False
        while not ended:
            z = np.array([points[i] for i in live])
            sse = _linear_fit(z[:, :1] + r, y, z[:, 1:2], z[:, 2:3])[1]
            for i, f in zip(live, (sse / scale).tolist()):
                try:
                    points[i] = descents[i].send(f)
                except StopIteration as stop:
                    ends[i], ended = stop.value, True
        live = [i for i in live if ends[i] is None]
    return ends


def _trend_lines(batch) -> np.ndarray:
    """Each window's least-squares trend line sse, on the basis [1, x] with x = (t - t_first) / (t_last - t_first).

    x runs over [0, 1] at any time unit (polyfit's scaling of t - t_first overflows or underflows at extreme ones).
    """
    with np.errstate(all="ignore"):
        tt = batch.times
        x = (tt - tt[:, :1]) / (tt[:, -1:] - tt[:, :1])
        line = np.stack([np.ones_like(x), x], axis=-1)
        line_t = line.swapaxes(-1, -2)
        return _residuals(line, batch.y, _solve(line_t @ line, line_t @ batch.y[..., None])[..., 0])[1]


def _assemble(windows, batch, best, ends, polished, sse_line, filters) -> list:
    """Per window, its qualified fit at its polished descent end of least scaled sse, or a FitError.

    The FitError stands in when no end's sse is finite, or when _params cannot state the fit in the series' time unit.

    ends, polished (_polish's z, sse and beta) and best, the screen indices (W, _DESCENTS), follow _descend's order.
    """
    z, sse, beta = polished
    f = sse / np.repeat(batch.scale, _DESCENTS)
    fits = []
    for w, window in enumerate(windows):
        own = slice(_DESCENTS * w, _DESCENTS * (w + 1))
        if not np.isfinite(f[own]).any():
            diagnostics = [{"start": i, "sse": end[1], "converged": end[2]} for i, end in zip(best[w].tolist(), ends[own])]
            message = f"every descent failed to produce a finite fit on [{window.t1}, {window.t2}]"
            fits.append(FitError(message, diagnostics))
            continue
        # argmin keeps the first of equal scaled sse, the descent from the better screen point
        k = own.start + int(np.argmin(f[own]))
        u, m, omega = z[k].tolist()
        span = filters.tc_horizon * window.length
        try:
            params = _params(window.t2 + u * span, m, omega, beta[k], span)
        except FitError as error:
            fits.append(error)
            continue
        fit = FitResult(
            params=params,
            window=window,
            sse=float(sse[k]),
            rmse=math.sqrt(sse[k] / window.n_points),
            n_points=window.n_points,
            qualified=False,
            sign=sign_of(params.B),
            sse_line=float(sse_line[w]),
        )
        fits.append(qualify(fit, filters))
    return fits
