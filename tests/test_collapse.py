"""Scaling-collapse fitting: quality metric, grids, optimizers, T_c location.

Synthetic grids are built directly from the scaling ansatz so the collapse
objective has an exact zero at the generating parameters; engine-generated
recovery at production scale lives in the acceptance suite.
"""
import math
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from critspec import collapse
from critspec.collapse import (
    CollapseResult,
    SweepGrid,
    _nelder_mead,
    classical_collapse,
    classical_points,
    collapse_quality,
    quantum_collapse,
    quantum_points,
    tc_locate,
)
from critspec.filters import GeometryConfig, PulseSequence
from critspec.models import ModelA
from critspec.noise import DecoherenceCurve, phi_squared, t2_extract


def quadratic_surface(n, sigma=0.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(n, 2))
    y = 0.3 + 0.5 * x[:, 0] - 0.2 * x[:, 1] + 0.1 * x[:, 0] ** 2 \
        - 0.07 * x[:, 0] * x[:, 1] + 0.04 * x[:, 1] ** 2
    if sigma:
        y = y + sigma * rng.standard_normal(n)
    return np.column_stack([x, y])


class TestCollapseQuality:
    def test_smooth_surface_near_zero(self):
        assert collapse_quality(quadratic_surface(300)) < 1e-10

    def test_jitter_recovered_as_variance(self):
        sigma = 0.1
        q = collapse_quality(quadratic_surface(400, sigma=sigma, seed=3))
        assert 0.5 * sigma**2 < q < 1.5 * sigma**2

    def test_shuffle_destroys_collapse(self):
        pts = quadratic_surface(400, sigma=0.1, seed=3)
        rng = np.random.default_rng(5)
        shuffled = pts.copy()
        rng.shuffle(shuffled[:, -1])
        assert collapse_quality(shuffled) > 20.0 * collapse_quality(pts)

    def test_needs_ten_points(self):
        with pytest.raises(ValueError):
            collapse_quality(quadratic_surface(9))

    def test_single_bin_rejected(self):
        pts = np.column_stack([np.ones(20), np.ones(20),
                               np.linspace(0, 1, 20)])
        with pytest.raises(ValueError):
            collapse_quality(pts)

    def test_rejects_nonfinite_and_bad_shape(self):
        pts = quadratic_surface(50)
        pts[3, -1] = np.nan
        with pytest.raises(ValueError):
            collapse_quality(pts)
        with pytest.raises(ValueError):
            collapse_quality(np.ones(30))


def _reference_design(offsets):
    # the list-stacking feature matrix the vectorised metric replaced
    m = offsets.shape[-1]
    cols = [np.ones(offsets.shape[:-1])]
    for a in range(m):
        cols.append(offsets[..., a])
    for a in range(m):
        for b in range(a, m):
            cols.append(offsets[..., a] * offsets[..., b])
    return np.stack(cols, axis=-1)


def _reference_quality(points, *, k=16):
    # the metric with its per-row neighbour loop, as it was before the loop
    # was vectorised; collapse_quality must match it bit for bit
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

    tree = cKDTree(Z)
    _, idx = tree.query(Z, k=kk + 1)
    neigh = np.empty((n, kk), dtype=int)
    for i in range(n):
        row = idx[i][idx[i] != i]
        neigh[i] = row[:kk]

    offsets = Z[neigh] - Z[:, None, :]
    A = _reference_design(offsets)
    At = A.transpose(0, 2, 1)
    G = At @ A
    ridge = 1e-8 * np.trace(G, axis1=1, axis2=2)[:, None, None] / p + 1e-30
    G = G + ridge * np.eye(p)[None]
    b = At @ y[neigh][..., None]
    coef = np.linalg.solve(G, b)
    y_hat = coef[:, 0, 0]
    resid = np.mean((y - y_hat) ** 2) / (1.0 + p / kk)
    return float(resid)


def _self_dropped_rows(points, k):
    """Rows whose own index is missing from their k+1 nearest neighbours."""
    X = np.asarray(points, dtype=float)[:, :-1]
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    kk = min(k, len(X) - 1)
    _, idx = cKDTree(Z).query(Z, k=kk + 1)
    return int(np.sum(~np.any(idx == np.arange(len(X))[:, None], axis=1)))


class TestQualityBitIdentity:
    """The vectorised neighbour selection and design matrix change no bit."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_loop_on_duplicate_heavy_lattices(self, m, seed):
        rng = np.random.default_rng(100 * m + seed)
        n = int(rng.integers(12, 120))
        k = int(rng.choice([4, 8, 16]))
        X = rng.integers(0, int(rng.integers(2, 6)), size=(n, m)).astype(float)
        pts = np.column_stack([X, rng.standard_normal(n)])
        assert collapse_quality(pts, k=k) == _reference_quality(pts, k=k)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_point_pushed_out_of_its_own_query(self, m):
        # 40 copies of each lattice site: more than k+1 points coincide, so
        # the tree returns k+1 twins and some rows do not contain themselves
        rng = np.random.default_rng(7 + m)
        sites = np.arange(3 ** m)
        X = np.array(np.unravel_index(np.repeat(sites, 40), (3,) * m), dtype=float).T
        pts = np.column_stack([X, rng.standard_normal(len(X))])
        assert _self_dropped_rows(pts, 16) > 0
        assert collapse_quality(pts) == _reference_quality(pts)

    def test_same_errors_as_loop(self):
        for pts in (np.ones((9, 3)), np.ones(30),
                    np.column_stack([np.ones(20), np.linspace(0, 1, 20)])):
            with pytest.raises(ValueError) as new:
                collapse_quality(pts)
            with pytest.raises(ValueError) as ref:
                _reference_quality(pts)
            assert str(new.value) == str(ref.value)


def _reference_classical_points(grid, params):
    # classical_points as it was when it took every log per call
    nu, eta, z, tc, xi0 = params
    dt = np.abs(grid.T - tc)
    floor = 1e-9 * max(float(np.median(np.abs(grid.T))), 1e-30)
    dt = np.maximum(dt, floor)
    ln_xi = math.log(xi0) - nu * np.log(dt)
    ln_d = np.log(grid.d)
    ln_tau = np.log(grid.tau)
    x2 = ln_d - ln_xi
    x1 = ln_tau - z * ln_d
    yv = np.log(grid.phi_sq) + (2.0 + eta - z) * ln_d - np.log(grid.T) - ln_tau
    return np.column_stack([x1, x2, yv])


def _reference_quantum_points(grid, params):
    nu, eta, z, lc, delta0 = params
    dl = np.abs(grid.lam - lc)
    floor = 1e-9 * max(float(np.median(np.abs(grid.lam))), 1e-30)
    ln_delta = math.log(delta0) + (z * nu) * np.log(np.maximum(dl, floor))
    x1 = ln_delta + np.log(grid.tau)
    x2 = np.log(grid.d) + ln_delta / z
    x3 = ln_delta - np.log(grid.T)
    yv = np.log(grid.phi_sq) - ((2.0 + eta - z) / z) * np.log(grid.T)
    return np.column_stack([x1, x2, x3, yv])


class TestSweepGrid:
    def test_column_lengths_must_match(self):
        with pytest.raises(ValueError):
            SweepGrid(d=[1, 2, 3], tau=[1, 2], T=[1, 2, 3], phi_sq=[1, 2, 3])

    def test_rejects_nonpositive_and_nonfinite(self):
        with pytest.raises(ValueError):
            SweepGrid(d=[1, 0, 3], tau=[1, 2, 3], T=[1, 2, 3], phi_sq=[1, 2, 3])
        with pytest.raises(ValueError):
            SweepGrid(d=[1, 2, 3], tau=[1, 2, 3], T=[1, 2, 3],
                      phi_sq=[1, math.inf, 3])

    def test_two_distinct_values_is_not_a_sweep(self):
        with pytest.raises(ValueError):
            SweepGrid(d=[1, 2, 1, 2], tau=[1, 2, 3, 4], T=[1, 1, 1, 1],
                      phi_sq=[1, 2, 3, 4])
        # one distinct value (pinned) and >= 3 (swept) are both fine
        SweepGrid(d=[1, 1, 1], tau=[1, 2, 3], T=[1, 1, 1], phi_sq=[1, 2, 3])

    def test_errors_default_and_validation(self):
        g = SweepGrid(d=[1, 1, 1], tau=[1, 2, 3], T=[1, 1, 1], phi_sq=[1, 2, 3])
        assert np.all(g.errors == 0.0)
        with pytest.raises(ValueError):
            SweepGrid(d=[1, 1, 1], tau=[1, 2, 3], T=[1, 1, 1],
                      phi_sq=[1, 2, 3], errors=[0.1, -0.1, 0.1])

    def test_take_preserves_lambda(self):
        g = SweepGrid(d=[1, 1, 1, 1], tau=[1, 2, 3, 4], T=[1, 1, 1, 1],
                      phi_sq=[1, 2, 3, 4], lam=[0.5, 0.6, 0.7, 0.8])
        sub = g.take([0, 2])
        assert sub.size == 2
        assert np.allclose(sub.lam, [0.5, 0.7])


def test_nelder_mead_stops_on_collapsed_simplex():
    # an isolated minimum: shrinking toward it leaves the other vertices one
    # ulp away (0.75 ulp rounds up) at a value that never drops, so the value
    # spread stays above fatol and plain Nelder-Mead would run to maxiter
    xs = np.array([0.3, 0.7, 1.1, 1.9])
    res = _nelder_mead(lambda x: 0.0 if np.array_equal(x, xs) else 1.0, xs.copy(),
                       maxiter=1600, xatol=1e-5, fatol=1e-12)
    assert res.nit < 200
    np.testing.assert_array_equal(res.x, xs)


NU_C, Z_C, ETA_C, TC_C = 0.6, 1.7, 0.1, 1.3


def classical_grid(jitter=0.0, seed=0, nu=NU_C, z=Z_C, eta=ETA_C, tc=TC_C):
    d = np.array([1.0, 3.0, 10.0])
    tau = np.geomspace(1.0, 100.0, 5)
    T = np.array([0.7, 1.0, 1.2, 1.45, 1.8])
    D, Ta, TT = np.meshgrid(d, tau, T, indexing="ij")
    xi = np.abs(TT - tc) ** (-nu)
    u1 = np.log(Ta) - z * np.log(D)
    u2 = np.log(D / xi)
    G = np.exp(-0.05 * u1**2 - 0.25 * u2**2)
    phi = TT * Ta * D ** (-(2.0 + eta - z)) * G
    if jitter:
        rng = np.random.default_rng(seed)
        phi = phi * np.exp(jitter * rng.standard_normal(D.shape))
    return SweepGrid(d=D.ravel(), tau=Ta.ravel(), T=TT.ravel(), phi_sq=phi.ravel())


PIN_EZ = {"eta": (ETA_C, ETA_C), "z": (Z_C, Z_C)}


class TestClassicalCollapse:
    def test_recovers_generating_parameters(self):
        res = classical_collapse(classical_grid(), bounds=PIN_EZ, seed=9,
                                 k=8, n_starts=4)
        assert res.converged
        assert not res.clamped
        assert res.nu == pytest.approx(NU_C, abs=0.02)
        assert res.critical_value == pytest.approx(TC_C, rel=0.02)
        assert res.residual < 1e-10
        # the length-scale amplitude only translates the scaling axes
        assert "xi0" in res.degenerate

    def test_rescaled_data_same_argmin(self):
        g = classical_grid()
        g_scaled = SweepGrid(d=g.d, tau=g.tau, T=g.T, phi_sq=137.0 * g.phi_sq)
        res = classical_collapse(g, bounds=PIN_EZ, seed=9, k=8, n_starts=4)
        res_s = classical_collapse(g_scaled, bounds=PIN_EZ, seed=9, k=8, n_starts=4)
        # identical up to optimizer termination noise: the scaling enters the
        # objective only through log(phi_sq) rounding
        assert res_s.nu == pytest.approx(res.nu, abs=1e-4)
        assert res_s.critical_value == pytest.approx(res.critical_value, abs=1e-4)

    def test_deterministic_given_seed(self):
        a = classical_collapse(classical_grid(), bounds=PIN_EZ, seed=4, k=8,
                               n_starts=2)
        b = classical_collapse(classical_grid(), bounds=PIN_EZ, seed=4, k=8,
                               n_starts=2)
        for f in ("nu", "eta", "z", "critical_value", "amplitude", "residual",
                  "converged", "clamped", "degenerate"):
            assert getattr(a, f) == getattr(b, f)

    def test_pinned_critical_temperature_honored(self):
        bounds = dict(PIN_EZ, T_c=(1.1, 1.1))
        res = classical_collapse(classical_grid(), bounds=bounds, seed=9,
                                 k=8, n_starts=2)
        assert res.critical_value == 1.1

    def test_optimum_at_bound_flagged_clamped(self):
        # the quality falls monotonically across nu in [0.40, 0.55] toward
        # the generating value 0.6, so the restricted optimum sits on the edge
        bounds = {"eta": (ETA_C, ETA_C), "z": (Z_C, Z_C),
                  "T_c": (TC_C, TC_C), "xi0": (1.0, 1.0), "nu": (0.40, 0.55)}
        res = classical_collapse(classical_grid(), bounds=bounds, seed=9,
                                 k=8, n_starts=2)
        assert res.clamped
        assert res.nu == pytest.approx(0.55, abs=1e-6)

    def test_refit_of_refitted_surface_is_consistent(self):
        g1 = classical_grid(jitter=0.05, seed=21)
        res1 = classical_collapse(g1, bounds=PIN_EZ, seed=9, k=8, n_starts=2)
        g2 = classical_grid(jitter=0.05, seed=21, nu=res1.nu,
                            tc=res1.critical_value)
        res2 = classical_collapse(g2, bounds=PIN_EZ, seed=9, k=8, n_starts=2)
        assert res2.residual <= 2.0 * res1.residual

    def test_narrow_span_warns(self):
        d = np.array([1.0, 1.5, 2.0])
        tau = np.array([1.0, 1.5, 2.0])
        T = np.array([0.7, 1.3, 1.9])
        D, Ta, TT = np.meshgrid(d, tau, T, indexing="ij")
        g = SweepGrid(d=D.ravel(), tau=Ta.ravel(), T=TT.ravel(),
                      phi_sq=np.full(D.size, 2.0))
        with pytest.warns(UserWarning, match="decade"):
            classical_collapse(g, bounds=dict(PIN_EZ, nu=(NU_C, NU_C),
                                              T_c=(TC_C, TC_C),
                                              xi0=(1.0, 1.0)), seed=0)

    def test_result_params_mapping(self):
        res = classical_collapse(classical_grid(),
                                 bounds=dict(PIN_EZ, nu=(NU_C, NU_C),
                                             T_c=(TC_C, TC_C), xi0=(1.0, 1.0)),
                                 seed=0)
        p = res.params()
        assert set(p) == {"nu", "eta", "z", "T_c", "xi0"}
        assert p["nu"] == res.nu and p["T_c"] == res.critical_value
        assert res.kind == "classical"
        assert res.n_points == classical_grid().size

    @pytest.mark.parametrize("tc", [1.0, 1.27])
    def test_points_equal_per_call_logs(self, tc):
        # tc = 1.0 sits on a grid temperature, so the |T - T_c| floor acts
        g = classical_grid(jitter=0.05, seed=3)
        params = (0.55, 0.05, 1.8, tc, 0.9)
        np.testing.assert_array_equal(classical_points(g, params),
                                      _reference_classical_points(g, params))

    @pytest.mark.parametrize("name", ["Nu", "Tc", "lambda_c"])
    def test_unknown_bound_name_rejected(self, name):
        with pytest.raises(ValueError, match=repr(name)):
            classical_collapse(classical_grid(), bounds=dict(PIN_EZ, **{name: (0.3, 0.8)}))

    def test_records_metric_calls_and_start_optima(self, monkeypatch):
        calls = []
        real = collapse.collapse_quality
        monkeypatch.setattr(collapse, "collapse_quality",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        res = classical_collapse(classical_grid(jitter=0.05, seed=21), bounds=PIN_EZ,
                                 seed=9, k=8, n_starts=3, n_bootstrap=2)
        assert res.n_calls == len(calls) > 0
        assert len(res.start_optima) == 3
        assert res.residual <= min(v for v, _ in res.start_optima)
        for _, p in res.start_optima:
            assert len(p) == 5 and (p[1], p[2]) == (ETA_C, Z_C)

    def test_bootstrap_interval_covers_truth(self):
        # +-1 sigma from 100 resamples should contain the generating nu in
        # >= 60% of 50 noisy trials
        pins = {"eta": (0.0, 0.0), "z": (Z_C, Z_C), "T_c": (TC_C, TC_C),
                "xi0": (1.0, 1.0)}
        d = np.array([1.0, 3.0, 9.0])
        tau = np.geomspace(1.0, 30.0, 3)
        T = np.array([0.6, 0.9, 1.15, 1.6, 2.1])
        D, Ta, TT = np.meshgrid(d, tau, T, indexing="ij")
        xi = np.abs(TT - TC_C) ** (-NU_C)
        u1 = np.log(Ta) - Z_C * np.log(D)
        u2 = np.log(D / xi)
        base = TT * Ta * D ** (-(2.0 - Z_C)) * np.exp(-0.05 * u1**2 - 0.25 * u2**2)
        hits = 0
        for trial in range(50):
            rng = np.random.default_rng(1000 + trial)
            phi = base * np.exp(0.03 * rng.standard_normal(D.shape))
            g = SweepGrid(d=D.ravel(), tau=Ta.ravel(), T=TT.ravel(),
                          phi_sq=phi.ravel())
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = classical_collapse(g, bounds=pins, seed=5, k=6,
                                         n_starts=2, n_bootstrap=100)
            sigma = math.sqrt(res.covariance[0, 0])
            hits += abs(res.nu - NU_C) <= sigma
        assert hits >= 30


def quantum_grid(lambda_dependent=True):
    lam = np.array([1.0, 1.4, 1.8, 2.2, 2.6, 3.0])
    tau = np.geomspace(1.0, 100.0, 4)
    d = np.array([1.0, 2.0, 4.0])
    T = np.array([0.5, 1.0, 2.0, 4.0])
    L, Ta, D, TT = np.meshgrid(lam, tau, d, T, indexing="ij")
    if lambda_dependent:
        z_t, nu_t, lc = 2.0, 1.0, 2.0
        delta = np.abs(L - lc) ** (z_t * nu_t)
        x1 = np.log(delta * Ta)
        x2 = np.log(D) + np.log(delta) / z_t
        x3 = np.log(delta / TT)
        H = 1.0 / (1.0 + np.exp(x1)) * np.exp(-0.1 * x2**2) \
            * (1.0 + 0.2 * np.tanh(x3))
        phi = TT ** ((2.0 - z_t) / z_t) * H
    else:
        # collapses exactly for every gap parameterization: the value is a
        # function of ln(Delta tau) - ln(Delta/T) alone
        s = np.log(Ta) + np.log(TT)
        phi = np.exp(-0.05 * (s - 3.0) ** 2)
    return SweepGrid(d=D.ravel(), tau=Ta.ravel(), T=TT.ravel(),
                     phi_sq=phi.ravel(), lam=L.ravel())


class TestQuantumCollapse:
    @pytest.mark.parametrize("lc", [2.2, 2.05])
    def test_points_equal_per_call_logs(self, lc):
        # lc = 2.2 sits on a grid lambda, so the |lambda - lambda_c| floor acts
        g = quantum_grid()
        params = (1.1, 0.1, 1.9, lc, 0.8)
        np.testing.assert_array_equal(quantum_points(g, params),
                                      _reference_quantum_points(g, params))

    def test_recovers_gap_exponent_product(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = quantum_collapse(quantum_grid(),
                                   bounds={"eta": (0.0, 0.0), "nu": (0.5, 1.6),
                                           "z": (1.0, 3.5)},
                                   seed=3, k=8, n_starts=2)
        assert res.converged
        assert not res.clamped
        assert res.nu * res.z == pytest.approx(2.0, abs=0.15)
        assert res.critical_value == pytest.approx(2.0, rel=0.02)
        assert res.residual < 1e-10
        assert res.kind == "quantum"

    def test_lambda_independent_data_flags_gap_direction(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = quantum_collapse(quantum_grid(lambda_dependent=False),
                                   bounds={"eta": (0.0, 0.0), "z": (2.0, 2.0)},
                                   seed=3, k=8, n_starts=2)
        assert "Delta0" in res.degenerate
        assert res.residual < 1e-8

    def test_bound_violation_flagged(self):
        # quality falls monotonically across lambda_c in [1.955, 1.995]
        # toward the generating value 2.0 just outside the window
        bounds = {"eta": (0.0, 0.0), "nu": (1.0, 1.0), "z": (2.0, 2.0),
                  "Delta0": (1.0, 1.0), "lambda_c": (1.955, 1.995)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = quantum_collapse(quantum_grid(), bounds=bounds, seed=3,
                                   k=8, n_starts=2)
        assert res.clamped
        assert res.critical_value == pytest.approx(1.995, abs=1e-3)

    def test_needs_lambda_axis(self):
        g = classical_grid()
        with pytest.raises(ValueError):
            quantum_collapse(g)


class TestTcLocate:
    def test_symmetric_parabola_exact_vertex(self):
        t = np.linspace(1.0, 5.0, 5)
        y = (t - 3.3) ** 2 + 2.0
        tc, half = tc_locate(np.column_stack([t, y]))
        assert tc == pytest.approx(3.3, abs=1e-12)
        assert half == pytest.approx(1.0)

    def test_unsorted_input_handled(self):
        t = np.array([5.0, 1.0, 3.0, 4.0, 2.0])
        y = (t - 3.3) ** 2 + 2.0
        tc, _ = tc_locate(np.column_stack([t, y]))
        assert tc == pytest.approx(3.3, abs=1e-12)

    def test_monotone_curve_rejected(self):
        t = np.linspace(1.0, 5.0, 5)
        with pytest.raises(ValueError):
            tc_locate(np.column_stack([t, t**2]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            tc_locate([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError):
            tc_locate(np.ones((5, 3)))

    def test_engine_sweep_brackets_critical_temperature(self):
        # coherence time dips where the correlation length peaks
        tc_true = 1.0
        temps = np.linspace(0.5, 1.5, 9)
        taus = np.geomspace(0.05, 50.0, 10)
        geom = GeometryConfig(d=1.0)
        seq = PulseSequence.ramsey(1.0)
        rows = []
        for T in temps:
            dt = abs(T - tc_true)
            xi = math.inf if dt == 0.0 else dt ** -0.5
            m = ModelA(gamma0=1.0, J=1.0, xi=xi, T=T)
            phi = np.array([phi_squared(t, seq, m, geom, tol_omega=1e-4)
                            for t in taus])
            curve = DecoherenceCurve(taus=taus, phi_sq=phi,
                                     errors=np.zeros_like(taus), seq=seq,
                                     model=m, geom=geom, provenance={})
            rows.append((T, t2_extract(curve)))
        tc, half = tc_locate(rows)
        assert abs(tc - tc_true) <= 0.125
        assert half == pytest.approx(0.125)
