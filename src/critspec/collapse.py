"""Critical-exponent extraction by scaling collapse, and T_c location.

Classical collapse rescales phase-variance data as
    y = <phi^2> d^{2+eta-z}/(T tau)  vs  (tau/d^z, d/xi(T)),
    xi(T) = xi0 |T - T_c|^{-nu},
and the quantum variant as
    y = <phi^2>/T^{(2+eta-z)/z}  vs  (Delta tau, d Delta^{1/z}, Delta/T),
    Delta = Delta0 |lambda - lambda_c|^{z nu}.
Fits minimize a binned local-regression collapse metric: each point is
predicted by a quadratic fit to its nearest neighbors in the scaling
coordinates (leave-one-out), and the residual is the dof-corrected mean
squared deviation.  Coordinates and y enter the objective in logs so the
metric is invariant to an overall rescaling of the data.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import cKDTree
from scipy.stats import qmc

__all__ = [
    "SweepGrid",
    "CollapseResult",
    "collapse_quality",
    "classical_collapse",
    "classical_points",
    "quantum_collapse",
    "quantum_points",
    "tc_locate",
]


@dataclass
class SweepGrid:
    """Phase-variance records over (d, tau, T[, lambda]) with uncertainties."""

    d: np.ndarray
    tau: np.ndarray
    T: np.ndarray
    phi_sq: np.ndarray
    errors: np.ndarray | None = None
    lam: np.ndarray | None = None

    def __post_init__(self):
        arrs = {"d": self.d, "tau": self.tau, "T": self.T, "phi_sq": self.phi_sq}
        if self.lam is not None:
            arrs["lam"] = self.lam
        n = None
        for name, a in arrs.items():
            a = np.asarray(a, dtype=float).ravel()
            setattr(self, name, a)
            if n is None:
                n = a.size
            elif a.size != n:
                raise ValueError("grid columns must have equal length")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite")
            if name != "lam" and np.any(a <= 0.0):
                raise ValueError(f"{name} must be positive")
        if self.errors is None:
            self.errors = np.zeros(n)
        else:
            self.errors = np.asarray(self.errors, dtype=float).ravel()
            if self.errors.size != n or np.any(self.errors < 0.0):
                raise ValueError("errors must be non-negative, one per record")
        for name in ("d", "tau", "T") + (("lam",) if self.lam is not None else ()):
            nd = np.unique(getattr(self, name)).size
            if nd == 2:
                raise ValueError(f"axis {name} has 2 distinct values; "
                                 "a swept axis needs >= 3")

    @property
    def size(self) -> int:
        return self.d.size

    def take(self, idx) -> "SweepGrid":
        # resampled rows inherit the parent's validated values; re-checking
        # the distinct-count rule would reject legitimate bootstrap draws
        sub = object.__new__(SweepGrid)
        sub.d = self.d[idx]
        sub.tau = self.tau[idx]
        sub.T = self.T[idx]
        sub.phi_sq = self.phi_sq[idx]
        sub.errors = self.errors[idx]
        sub.lam = None if self.lam is None else self.lam[idx]
        return sub


@dataclass
class CollapseResult:
    """Fitted exponents, critical location, and fit diagnostics."""

    nu: float
    eta: float
    z: float
    critical_value: float
    amplitude: float
    residual: float
    converged: bool
    clamped: bool
    seed: int
    kind: str
    param_names: tuple
    covariance: np.ndarray | None = None
    degenerate: tuple = ()
    n_points: int = 0
    # collapse-metric evaluations: screen, descents, restarts, degeneracy
    # probes and bootstrap refits
    n_calls: int = 0
    # (value, params) at the end of each Nelder-Mead start, in start order
    start_optima: tuple = ()

    def params(self) -> dict:
        vals = (self.nu, self.eta, self.z, self.critical_value, self.amplitude)
        return dict(zip(self.param_names, vals))


def _design(offsets):
    """Quadratic feature matrix [1, z_a, z_a z_b] for local regression."""
    m = offsets.shape[-1]
    A = np.empty(offsets.shape[:-1] + (1 + m + m * (m + 1) // 2,))
    A[..., 0] = 1.0
    A[..., 1:m + 1] = offsets
    c = m + 1
    for a in range(m):
        for b in range(a, m):
            np.multiply(offsets[..., a], offsets[..., b], out=A[..., c])
            c += 1
    return A


def collapse_quality(points, *, k: int = 16) -> float:
    """Leave-one-out local-quadratic misfit of y over the scaling coordinates.

    points: array-like of rows (x_1, ..., x_m, y), m >= 1.  Every point is
    predicted from a quadratic surface fitted to its k nearest neighbors
    (itself excluded) and the dof-corrected mean squared deviation is
    returned, in absolute y^2 units: data jittered by sigma scores ~sigma^2,
    data on a smooth surface scores ~0.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValueError("points must be rows of (coords..., y)")
    n = pts.shape[0]
    if n < 10:
        raise ValueError("collapse quality needs at least 10 points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    X = pts[:, :-1]
    y = pts[:, -1]
    # centering makes the ridge-regularized fit exactly shift-invariant,
    # so rescaling the raw data cannot move the collapse argmin
    y = y - y.mean()
    sd = X.std(axis=0)
    live = sd > 1e-12 * (np.abs(X.mean(axis=0)) + 1.0)
    if not np.any(live):
        raise ValueError("all scaling coordinates are degenerate (single bin)")
    Z = (X[:, live] - X.mean(axis=0)[live]) / sd[live]
    m = Z.shape[1]
    kk = min(k, n - 1)
    p = 1 + m + m * (m + 1) // 2
    kk = max(kk, min(n - 1, p + 2))

    _, idx = cKDTree(Z).query(Z, k=kk + 1)
    # drop each point's own column; where duplicates pushed the point out of
    # its k+1 results, keep the first kk columns
    own = idx == np.arange(n)[:, None]
    col = np.where(own.any(axis=1), own.argmax(axis=1), kk)
    cols = np.arange(kk)[None, :]
    neigh = np.take_along_axis(idx, cols + (cols >= col[:, None]), axis=1)

    offsets = Z[neigh] - Z[:, None, :]
    A = _design(offsets)                     # (n, kk, p)
    At = A.transpose(0, 2, 1)
    G = At @ A
    ridge = 1e-8 * np.trace(G, axis1=1, axis2=2)[:, None, None] / p + 1e-30
    G = G + ridge * np.eye(p)[None]
    b = At @ y[neigh][..., None]
    coef = np.linalg.solve(G, b)
    y_hat = coef[:, 0, 0]                    # prediction at zero offset
    resid = np.mean((y - y_hat) ** 2) / (1.0 + p / kk)
    return float(resid)


def _classical_map(grid: SweepGrid):
    """params -> classical collapse rows on grid.

    The logs of the grid columns, the T floor and the output rows are made
    once; every call overwrites and returns the same (n, 3) array.
    """
    ln_d, ln_tau, ln_T, ln_phi = (np.log(a) for a in (grid.d, grid.tau, grid.T, grid.phi_sq))
    floor = 1e-9 * max(float(np.median(np.abs(grid.T))), 1e-30)
    rows = np.empty((grid.size, 3))

    def points(params):
        nu, eta, z, tc, xi0 = params
        dt = np.maximum(np.abs(grid.T - tc), floor)
        ln_xi = math.log(xi0) - nu * np.log(dt)
        rows[:, 0] = ln_tau - z * ln_d
        rows[:, 1] = ln_d - ln_xi
        rows[:, 2] = ln_phi + (2.0 + eta - z) * ln_d - ln_T - ln_tau
        return rows

    return points


def _quantum_map(grid: SweepGrid):
    """params -> quantum collapse rows on grid, made as in _classical_map."""
    ln_d, ln_tau, ln_T, ln_phi = (np.log(a) for a in (grid.d, grid.tau, grid.T, grid.phi_sq))
    floor = 1e-9 * max(float(np.median(np.abs(grid.lam))), 1e-30)
    rows = np.empty((grid.size, 4))

    def points(params):
        nu, eta, z, lc, delta0 = params
        dl = np.abs(grid.lam - lc)
        ln_delta = math.log(delta0) + (z * nu) * np.log(np.maximum(dl, floor))
        rows[:, 0] = ln_delta + ln_tau
        rows[:, 1] = ln_d + ln_delta / z
        rows[:, 2] = ln_delta - ln_T
        rows[:, 3] = ln_phi - ((2.0 + eta - z) / z) * ln_T
        return rows

    return points


def classical_points(grid: SweepGrid, params):
    """Rows (ln tau/d^z, ln d/xi, ln y) of the classical collapse at
    params = (nu, eta, z, T_c, xi0)."""
    return _classical_map(grid)(params)


def quantum_points(grid: SweepGrid, params):
    """Rows (ln Delta tau, ln d Delta^{1/z}, ln Delta/T, ln y) of the quantum
    collapse at params = (nu, eta, z, lambda_c, Delta0)."""
    return _quantum_map(grid)(params)


def _normalized_quality(points, k):
    yv = points[:, -1]
    var = float(yv.var())
    if var <= 1e-24:
        return 0.0
    return collapse_quality(points, k=k) / var


_DEF_BOUNDS = {"nu": (0.25, 2.0), "eta": (-0.5, 1.0), "z": (0.5, 5.0)}


def _resolve_bounds(names, bounds, grid, loc_name):
    out = []
    user = dict(bounds or {})
    unknown = [name for name in user if name not in names]
    if unknown:
        raise ValueError(f"unknown bounds name(s) {', '.join(map(repr, unknown))}; "
                         f"the fit parameters are {', '.join(names)}")
    for name in names:
        if name in user:
            lo, hi = map(float, user[name])
        elif name in _DEF_BOUNDS:
            lo, hi = _DEF_BOUNDS[name]
        elif name == loc_name:
            axis = grid.T if loc_name == "T_c" else grid.lam
            lo, hi = float(np.min(axis)), float(np.max(axis))
        else:  # amplitude
            lo, hi = 1e-3, 1e3
        if not (hi >= lo):
            raise ValueError(f"bounds for {name} are inverted")
        out.append((lo, hi))
    return out


def _nelder_mead(fun, x0, *, maxiter, xatol, fatol):
    """Adaptive Nelder-Mead that also stops once its simplex has collapsed to rounding.

    The collapse metric jumps where neighbour sets change.  A simplex that
    straddles a jump keeps its value spread above fatol however small it
    gets, and would re-evaluate the same point until maxiter; here the run
    ends when the last 2(n+1) evaluated points agree to 1e-12.
    """
    recent = deque(maxlen=2 * (len(x0) + 1))

    def f(x):
        recent.append(np.array(x))
        return fun(x)

    def stop(intermediate_result):
        if len(recent) == recent.maxlen:
            pts = np.array(recent)
            if np.all(np.ptp(pts, axis=0) <= 1e-12 * (1.0 + np.abs(pts[0]))):
                raise StopIteration

    return minimize(f, x0, method="Nelder-Mead", callback=stop,
                    options={"maxiter": maxiter, "xatol": xatol, "fatol": fatol,
                             "adaptive": True})


def _fit(grid, names, bounds, seed, prepare, *, k, n_starts, n_bootstrap, kind):
    # prepare(grid) returns the params -> collapse rows map of that grid
    # amplitude parameter is optimized in log space
    amp_i = len(names) - 1
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    if np.any(lo[amp_i] <= 0.0):
        raise ValueError(f"{names[amp_i]} bounds must be positive")
    lo_u = lo.copy(); hi_u = hi.copy()
    lo_u[amp_i] = math.log(lo[amp_i]); hi_u[amp_i] = math.log(hi[amp_i])
    width = hi_u - lo_u
    free = width > 0.0
    n_free = int(free.sum())

    def to_params(u_free):
        u = lo_u.copy()
        u[free] = np.clip(u_free, lo_u[free], hi_u[free])
        p = u.copy()
        p[amp_i] = math.exp(u[amp_i])
        return p, u

    n_calls = 0

    def quality(rows):
        nonlocal n_calls
        n_calls += 1
        return _normalized_quality(rows, k)

    points = prepare(grid)

    def objective(u_free, points=points):
        p, u = to_params(u_free)
        pen = np.sum(((np.asarray(u_free) - u[free]) / width[free]) ** 2) \
            if n_free else 0.0
        return quality(points(p)) * (1.0 + pen) + pen

    start_optima = []
    if n_free == 0:
        best_u, best_f, success = np.empty(0), objective(np.empty(0)), True
    else:
        sob = qmc.Sobol(d=n_free, scramble=True, seed=seed)
        # screen a large low-discrepancy pool, descend only from the best
        pool = lo_u[free] + sob.random(max(16 * n_starts, 128)) * width[free]
        scores = np.array([objective(x) for x in pool])
        starts = pool[np.argsort(scores, kind="stable")[:n_starts]]
        cand = []
        for x0 in starts:
            res = _nelder_mead(objective, x0, maxiter=400 * n_free, xatol=1e-5,
                               fatol=1e-12)
            xc = np.clip(res.x, lo_u[free], hi_u[free])
            cand.append((float(res.fun), tuple(xc), bool(res.success)))
            start_optima.append((float(res.fun), tuple(map(float, to_params(xc)[0]))))
        cand.sort(key=lambda c: (c[0], c[1]))
        best_f, bx, success = cand[0]
        best_u = np.array(bx)
        # restarting with a fresh simplex recovers from premature collapse;
        # stalled improvement counts as converged even when maxiter was hit
        for _ in range(8):
            res = _nelder_mead(objective, best_u, maxiter=400 * n_free, xatol=1e-6,
                               fatol=1e-12)
            f_new = float(res.fun)
            x_new = np.clip(res.x, lo_u[free], hi_u[free])
            if f_new >= best_f - max(1e-3 * abs(best_f), 1e-14):
                success = True
                if f_new < best_f:
                    best_f, best_u = f_new, x_new
                break
            best_f, best_u = f_new, x_new
            success = bool(res.success)

    params, u_full = to_params(best_u)
    # the neighbor-set changes make the objective piecewise smooth, so a
    # bound-pressed optimum settles a micro-dip short of the edge; treat
    # anything within 0.1% of the span as sitting on the bound
    clamped = bool(np.any(free & ((u_full - lo_u < 1e-3 * np.maximum(width, 1)) |
                                  (hi_u - u_full < 1e-3 * np.maximum(width, 1)))))

    # probe each free direction; flat objective marks an unidentifiable one
    degenerate = []
    for i in np.flatnonzero(free):
        u2 = u_full.copy()
        step = 0.05 * width[i]
        u2[i] = u_full[i] + step if u_full[i] + step <= hi_u[i] else u_full[i] - step
        p2, _ = to_params(u2[free])
        f2 = quality(points(p2))
        if abs(f2 - best_f) <= 1e-4 * max(best_f, 1e-12):
            degenerate.append(names[i])
    degenerate = tuple(degenerate)

    cov = None
    if n_bootstrap > 0 and n_free > 0:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB007]))
        samples = np.empty((n_bootstrap, n_free))
        for r in range(n_bootstrap):
            idx = rng.integers(0, grid.size, grid.size)
            sub = prepare(grid.take(idx))
            res = _nelder_mead(lambda x: objective(x, sub), best_u, maxiter=60 * n_free,
                               xatol=1e-4, fatol=1e-10)
            samples[r] = np.clip(res.x, lo_u[free], hi_u[free])
        cov_free = np.atleast_2d(np.cov(samples, rowvar=False))
        cov = np.zeros((len(names), len(names)))
        fi = np.flatnonzero(free)
        for a, ia in enumerate(fi):
            for b, ib in enumerate(fi):
                cov[ia, ib] = cov_free[a, b]

    return CollapseResult(
        nu=float(params[0]), eta=float(params[1]), z=float(params[2]),
        critical_value=float(params[3]), amplitude=float(params[4]),
        residual=float(best_f), converged=bool(success), clamped=clamped,
        seed=seed, kind=kind, param_names=tuple(names), covariance=cov,
        degenerate=degenerate, n_points=grid.size, n_calls=n_calls,
        start_optima=tuple(start_optima))


def _check_span(grid):
    for name in ("tau", "d"):
        a = getattr(grid, name)
        if np.max(a) < 10.0 * np.min(a):
            warnings.warn(f"{name} spans less than a decade; collapse may be "
                          "poorly conditioned", stacklevel=3)


def classical_collapse(grid: SweepGrid, bounds=None, seed: int = 0, *,
                       k: int = 16, n_starts: int = 8,
                       n_bootstrap: int = 0) -> CollapseResult:
    """Fit (nu, eta, z, T_c, xi0) by collapsing y = phi^2 d^{2+eta-z}/(T tau)
    against (tau/d^z, d/xi).

    bounds maps parameter name to (lo, hi); lo == hi pins a parameter, and a
    name that is not a parameter is a ValueError.  Deterministic for a given
    seed and grid.
    """
    _check_span(grid)
    names = ("nu", "eta", "z", "T_c", "xi0")
    bl = _resolve_bounds(names, bounds, grid, "T_c")
    return _fit(grid, names, bl, seed, _classical_map, k=k, n_starts=n_starts,
                n_bootstrap=n_bootstrap, kind="classical")


def quantum_collapse(grid: SweepGrid, bounds=None, seed: int = 0, *,
                     k: int = 16, n_starts: int = 8,
                     n_bootstrap: int = 0) -> CollapseResult:
    """Fit (nu, eta, z, lambda_c, Delta0) with Delta = Delta0|lambda-lambda_c|^{z nu},
    collapsing y = phi^2/T^{(2+eta-z)/z} against (Delta tau, d Delta^{1/z}, Delta/T)."""
    if grid.lam is None:
        raise ValueError("quantum collapse needs a lambda axis")
    names = ("nu", "eta", "z", "lambda_c", "Delta0")
    bl = _resolve_bounds(names, bounds, grid, "lambda_c")
    return _fit(grid, names, bl, seed, _quantum_map, k=k, n_starts=n_starts,
                n_bootstrap=n_bootstrap, kind="quantum")


def tc_locate(t2_vs_T) -> tuple:
    """Critical temperature from the interior minimum of T2*(T).

    Returns (T_c, half_width): the vertex of the parabola through the
    discrete argmin and its neighbors, and half the neighbor spacing as
    the uncertainty.  Monotone input (edge minimum) is an error.
    """
    pts = np.asarray(t2_vs_T, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("need >= 3 rows of (T, T2)")
    order = np.argsort(pts[:, 0])
    t = pts[order, 0]
    y = pts[order, 1]
    i = int(np.argmin(y))
    if i == 0 or i == t.size - 1:
        raise ValueError("T2 curve has no interior minimum; "
                         "the sweep does not bracket T_c")
    t0, t1, t2 = t[i - 1], t[i], t[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = (t0 - t1) * (t0 - t2) * (t1 - t2)
    a = (t2 * (y1 - y0) + t1 * (y0 - y2) + t0 * (y2 - y1)) / denom
    b = (t2**2 * (y0 - y1) + t1**2 * (y2 - y0) + t0**2 * (y1 - y2)) / denom
    if a <= 0.0:
        return float(t1), float(0.5 * (t2 - t0))
    vertex = -b / (2.0 * a)
    if not (t0 <= vertex <= t2):
        vertex = t1
    return float(vertex), float(0.5 * (t2 - t0))
