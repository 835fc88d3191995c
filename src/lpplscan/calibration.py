"""Window calibration.

The seven model parameters split into four exactly linear ones (A, B, C1, C2)
and three nonlinear ones (t_c, m, omega). The linear block is solved by least
squares inside the objective, so the outer search runs over (t_c, m, omega)
only: a Latin-hypercube screen, then Nelder-Mead from its two best points,
then a variable-projection Gauss-Newton polish of each descent's end (Golub
& Pereyra 1973, with Kaufman's 1975 Jacobian). The screen is scored in two
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
each end to the optimum in a few steps. _fit_windows calibrates in two
phases. First, every window of the call (a pooled scan process's whole
share) with the same seed, times back from its end and t_c span to 12
significant digits, as the end dates of one window length on a regular grid
have, shares one screen: one basis and one X'X per batch of screen points,
solved for all their log-prices at once (one factorization for many
right-hand sides). Then the windows with the same number of points are
fitted in lockstep parts of at most about _BATCH_ROWS basis rows per step,
each part's rows gathered once into a _Batch and taken through four phases:
_descend (one kernel call per step scores every live descent's next point),
_polish, _trend_lines and _assemble (a window's fit is the polish's solve at
its best end). That kernel, _linear_fit, re-solves only a singular row by
lstsq and warns of nothing; every row of a batch is bit-identical to a
one-row call, so a window's fit does not depend on the windows fitted with it.
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

    The one exact linear solve of calibration: the screen's exact scores,
    the descents, the polish (whose solve is the fit) and solve_linear all
    go through it; only the screen's pre-score solves on its own. A
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
    # every step, its Jacobian included: an overflowed row goes non-finite silently
    with np.errstate(all="ignore"):
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


def _screen_sse(z, span, rev, y, owner) -> np.ndarray:
    """Exact sse of screen points z = (u, m, omega), point i on window owner[i] of the spans (W, 1) and log-prices y (W, n).

    Scored in batches of about _BATCH_ROWS basis rows, each gathering its own points' rows of span and y; every
    sse is that of a one-row _linear_fit call.
    """
    rows = max(1, _BATCH_ROWS // y.shape[-1])
    return np.concatenate([np.empty(0)] + [
        _linear_fit(z[i:i + rows, :1] * span[own] + rev, y[own], z[i:i + rows, 1:2], z[i:i + rows, 2:3])[1]
        for i in range(0, len(z), rows) for own in [owner[i:i + rows]]
    ])


def _screen_prescore(z, span, rev, y) -> np.ndarray:
    """Approximate sse, (points, windows), of screen points z on every row of y, windows that share span and rev.

    One basis per batch of points, built with float32 cos and sin
    (model._basis), one X'X and one solve for all the windows' right-hand
    sides X'Y, and explicit residuals against that basis. A batch holds at
    most about _BATCH_ROWS basis rows and 4 * _BATCH_ROWS residuals. A
    singular or overflowed X'X leaves its point's sse NaN in every window.
    """
    rows = max(1, min(_BATCH_ROWS, 4 * _BATCH_ROWS // len(y)) // y.shape[1])
    pre = np.empty((len(z), len(y)))
    with np.errstate(all="ignore"):
        for i in range(0, len(z), rows):
            part = z[i:i + rows]
            X = _basis(part[:, :1] * span + rev, part[:, 1:2], part[:, 2:3], trig32=True)[1]
            Xt = X.swapaxes(-1, -2)
            resid = X @ _solve(Xt @ X, Xt @ y.T)
            np.subtract(y.T, resid, out=resid)
            resid *= resid
            pre[i:i + rows] = resid.sum(axis=1)
    return pre


def _screen_best(z, span, rev, y, scale) -> np.ndarray:
    """Per row of y, the indices of the _DESCENTS screen points of least exact sse / scale, ties to the lower index.

    The rows, a list, are windows with equal rev and spans (W, 1) equal to 12
    significant digits, so they share the screen's basis: the pre-score is
    taken at the first span, every exact sse at the window's own. Two stages.
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
        block, block_span, block_scale = np.stack(y[c:c + width]), span[c:c + width], scale[c:c + width]
        pre = _screen_prescore(z, span[0], rev, block)
        second = np.partition(pre, _DESCENTS - 1, axis=0)[_DESCENTS - 1]
        # every window's leaders, window by window, each window's in index order
        owner, lead = np.nonzero((pre <= second * (1 + _PRESCORE_TOL) / (1 - _PRESCORE_TOL)).T)
        exact = _screen_sse(z[lead], block_span, rev, block, owner)
        held = np.isfinite(exact) & (np.abs(exact - pre[lead, owner]) <= _PRESCORE_TOL * exact)
        for w, col in enumerate(pre.T):
            own = owner == w
            if np.isfinite(col).all() and held[own].all():
                points, sse = lead[own], exact[own]
            else:  # the guard tripped: this window's whole screen, scored exactly
                points, sse = np.arange(len(z)), _screen_sse(z, block_span, rev, block, np.full(len(z), w))
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
    # normalized coordinates: z = (u, m, omega), t_c = t2 + u * span
    lo = np.array([_TC_MARGIN, filters.m_range[0], filters.omega_range[0]])
    hi = np.array([1.0, filters.m_range[1], filters.omega_range[1]])
    span = np.array([[filters.tc_horizon * w.length] for w in windows])
    y = [w.log_prices(series) for w in windows]
    # scale-invariant normalization so fatol means relative sse
    scale = np.array([v * len(row) if (v := float(np.var(row))) > 0 else 1.0 for row in y])

    # one screen per seed, rev, the time back from the window end (invariant under shifting all timestamps, so
    # the search path is translation-exact), and span to 12 digits: t2 - (t2 - L) may differ from L in its last bit
    shared: dict[tuple, list[int]] = {}
    for i, (w, seed) in enumerate(zip(windows, seeds)):
        shared.setdefault((int(seed), f"{span[i, 0]:.12g}", (w.t2 - w.times(series)).tobytes()), []).append(i)
    best = np.empty((len(windows), _DESCENTS), dtype=np.intp)
    first = np.empty((len(windows), _DESCENTS, 3))
    groups: dict[int, list[int]] = {}  # the windows of each n_points, which descend in lockstep
    for (seed, _, grid), ws in shared.items():
        screen = lo + _latin_hypercube(_SCREEN_PER_START * config.n_starts, 3, seed) * (hi - lo)
        best[ws] = _screen_best(screen, span[ws], np.frombuffer(grid), [y[i] for i in ws], scale[ws])
        first[ws] = screen[best[ws]]
        groups.setdefault(windows[ws[0]].n_points, []).extend(ws)

    fits = [None] * len(windows)
    for n, idx in groups.items():
        size = max(1, _BATCH_ROWS // (_DESCENTS * n))
        for part in (idx[i:i + size] for i in range(0, len(idx), size)):
            ws = [windows[i] for i in part]
            times = np.stack([w.times(series) for w in ws])
            batch = _Batch(span[part], scale[part], times, np.array([[w.t2] for w in ws]) - times,
                           np.stack([y[i] for i in part]))
            ends = _descend(batch, first[part], lo, hi, config.max_iter)
            # every descent end, Gauss-Newton polished in one batch; the polish's
            # solve at its point is that descent's fit, and a failed end keeps sse inf
            own = np.repeat(np.arange(len(part)), _DESCENTS)
            polished = _polish(np.array([end[0] for end in ends]), batch.span[own], batch.rev[own], batch.y[own], lo, hi)
            for i, fit in zip(part, _assemble(ws, batch, best[part], ends, polished, _trend_lines(batch), filters)):
                fits[i] = fit
    return fits


@dataclass(frozen=True, slots=True)
class _Batch:
    """The rows of W windows with equal n_points: t_c span (W, 1), sse scale (W,), and times, rev and y (W, n)."""

    span: np.ndarray
    scale: np.ndarray
    times: np.ndarray
    rev: np.ndarray  # times back from the window end, t2 - times
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
        span, rev, y, scale = batch.span[own], batch.rev[own], batch.y[own], batch.scale[own]
        ended = False
        while not ended:
            z = np.array([points[i] for i in live])
            sse = _linear_fit(z[:, :1] * span + rev, y, z[:, 1:2], z[:, 2:3])[1]
            for i, f in zip(live, (sse / scale).tolist()):
                try:
                    points[i] = descents[i].send(f)
                except StopIteration as stop:
                    ends[i], ended = stop.value, True
        live = [i for i in live if ends[i] is None]
    return ends


def _trend_lines(batch) -> np.ndarray:
    """Each window's least-squares trend line sse, on the basis [1, x] with x = (t - t_first) / (t_last - t_first).

    x spans [0, 1] at any time unit (polyfit's scaling of t - t_first overflows or underflows at extreme ones).
    """
    with np.errstate(all="ignore"):
        tt = batch.times
        x = (tt - tt[:, :1]) / (tt[:, -1:] - tt[:, :1])
        line = np.stack([np.ones_like(x), x], axis=-1)
        line_t = line.swapaxes(-1, -2)
        return _residuals(line, batch.y, _solve(line_t @ line, line_t @ batch.y[..., None])[..., 0])[1]


def _assemble(windows, batch, best, ends, polished, sse_line, filters) -> list:
    """Per window, its qualified fit at its polished descent end of least scaled sse, or a FitError if none is finite.

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
        A, B, c1, c2 = beta[k].tolist()
        params = LpplParams.from_linear(window.t2 + u * float(batch.span[w, 0]), m, omega, A, B, c1, c2)
        fit = FitResult(
            params=params,
            window=window,
            sse=float(sse[k]),
            rmse=math.sqrt(sse[k] / window.n_points),
            n_points=window.n_points,
            qualified=False,
            sign=sign_of(B),
            sse_line=float(sse_line[w]),
        )
        fits.append(qualify(fit, filters))
    return fits
