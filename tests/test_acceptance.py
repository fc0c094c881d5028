"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every test prints 'criterion NN: PASS/FAIL <measured numbers>' before
asserting, so a plain test log doubles as the acceptance report.  All
inputs are frozen; nothing here is tuned at run time.
"""

import json
import math
import time

import numpy as np
import pytest

from critspec.cli import main
from critspec.collapse import SweepGrid, classical_collapse
from critspec.filters import GeometryConfig, PulseSequence
from critspec.models import ModelA, ModelB, O3Regime
from critspec.noise import (QubitParams, coherence, cpmg_closed_form,
                            decoherence_curve, filter_weight_integral,
                            phi_squared)
from critspec.asymptotics import table1_quantum
from critspec.oracle import (LatticeSpec, mode_sum_phi_squared,
                             monte_carlo_phi_squared, simulate_field_trace)


def verdict(n, ok, detail):
    line = f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    return line


def test_criterion_01_material_headline(tmp_path):
    cfg = tmp_path / "material.json"
    cfg.write_text(json.dumps({"material": {
        "J_meV": 2.2, "a_nm": 0.687, "S": 1.5, "g_s": 2.0, "g_sigma": 2.0,
        "T_K": 60.0, "d_nm": 10.0, "xi_nm": 1.374}}))
    out = tmp_path / "t2.txt"
    t0 = time.time()
    rc = main(["estimate-t2", "--config", str(cfg), "--out", str(out)])
    elapsed = time.time() - t0
    t2_us = float(next(l.split("=")[1] for l in open(out)
                       if l.startswith("t2_microseconds")))
    ok = rc == 0 and 4.0 <= t2_us <= 6.0 and elapsed < 1.0
    line = verdict(1, ok, f"T2 = {t2_us:.3f} us (required 4-6 us), "
                          f"{elapsed:.2f}s")
    assert ok, line


def test_criterion_02_conserved_critical_exponent():
    # required band 1.50 +- 0.05; the fixed window sits inside the crossover
    # toward the asymptotic power law, and the exact engine slope there is
    # 1.606 independent of d, so this criterion fails as specified
    m = ModelB(J=1.0, sigma_s=1.0, xi=math.inf, T=1.0)
    geom = GeometryConfig(d=1.0)
    taus = np.geomspace(1e2, 1e4, 9)
    ph = [phi_squared(t, PulseSequence.ramsey(t), model=m, geom=geom,
                      tol_omega=1e-6) for t in taus]
    slope = float(np.polyfit(np.log(taus), np.log(ph), 1)[0])
    ok = abs(slope - 1.5) <= 0.05
    line = verdict(2, ok, f"slope = {slope:.4f} (required 1.50 +- 0.05 over "
                          f"tau in [1e2, 1e4] d^4/sigma_s); the 3/2 law "
                          f"emerges only for tau beyond ~1e8 d^4/sigma_s")
    assert ok, line


def test_criterion_03_relaxational_critical_logarithm():
    m = ModelA(gamma0=1.0, J=1.0, xi=math.inf, T=1.0)
    geom = GeometryConfig(d=1.0)
    taus = np.geomspace(1e4, 1e6, 9)
    ph = np.array([phi_squared(t, PulseSequence.ramsey(t), model=m, geom=geom,
                               tol_omega=1e-6) for t in taus])
    y = ph / taus
    x = np.log(taus)
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    r2 = 1.0 - float(np.sum(resid**2) / np.sum((y - y.mean()) ** 2))
    ok = r2 > 0.999
    line = verdict(3, ok, f"R^2 = {1 - (1 - r2):.6f} (1-R^2 = {1 - r2:.2e}, "
                          f"required R^2 > 0.999 over 2 decades)")
    assert ok, line


def test_criterion_04_far_field_distance_laws():
    ds = np.geomspace(30.0, 300.0, 7)
    slopes = {}
    for name, m, tau in [
            ("A", ModelA(gamma0=1.0, J=1.0, xi=1.0, T=1.0), 1e3),
            ("B", ModelB(J=1.0, sigma_s=1.0, xi=1.0, T=1.0), 1e7)]:
        ph = [phi_squared(tau, PulseSequence.ramsey(tau), model=m,
                          geom=GeometryConfig(d=d), tol_omega=1e-6) for d in ds]
        slopes[name] = float(np.polyfit(np.log(ds), np.log(ph), 1)[0])
    ok = abs(slopes["A"] + 4.0) <= 0.1 and abs(slopes["B"] + 2.0) <= 0.1
    line = verdict(4, ok, f"slope_A = {slopes['A']:.4f} (required -4.0 +- 0.1), "
                          f"slope_B = {slopes['B']:.4f} (required -2.0 +- 0.1)")
    assert ok, line


def test_criterion_05_cpmg_closed_form():
    wp = 32.0 * math.pi
    seq = PulseSequence.cpmg(32, 1.0)
    worst = 0.0
    for ratio in np.geomspace(0.01, 100.0, 21):
        w0 = ratio * wp
        exact = phi_squared(1.0, seq, spectrum=lambda w, w0=w0: w0 / (w0**2 + w**2),
                            tol_omega=1e-9)
        closed = cpmg_closed_form(1.0, w0, wp, 16.0 / math.pi)
        worst = max(worst, abs(exact / closed - 1.0))
    ok = worst <= 0.02
    line = verdict(5, ok, f"worst relative deviation = {worst:.2e} over "
                          f"omega0/omega_p in [0.01, 100] (required <= 2%)")
    assert ok, line


def test_criterion_06_filter_weight_conservation():
    kap, tau = 1.3, 2.7
    seqs = [PulseSequence.ramsey(tau, kap)] + \
           [PulseSequence.cpmg(n, tau, kap) for n in (1, 2, 5, 32)]
    worst = max(abs(filter_weight_integral(s)[0] / (kap**2 * tau) - 1.0)
                for s in seqs)
    ok = worst <= 1e-6
    line = verdict(6, ok, f"worst relative deviation = {worst:.2e} "
                          f"(required <= 1e-6, Ramsey and CPMG 1/2/5/32)")
    assert ok, line


def test_criterion_07_oracle_equivalence():
    lat = LatticeSpec(L=64)
    geom = GeometryConfig(d=2.0)
    tau, dt, seed, n_traces = 4.0, 0.005, 20260816, 1200
    configs = [("relaxational far", ModelA(gamma0=1.0, J=1.0, xi=1.0, T=1.0)),
               ("relaxational critical",
                ModelA(gamma0=1.0, J=1.0, xi=math.inf, T=1.0)),
               ("conserved far", ModelB(J=1.0, sigma_s=1.0, xi=1.0, T=1.0))]
    sequences = [("ramsey", PulseSequence.ramsey(tau)),
                 ("hahn", PulseSequence.hahn(tau))]
    worst, parts = 0.0, []
    for name, model in configs:
        traces = [simulate_field_trace(model, geom, lat, tau, dt, seed,
                                       trace_index=i) for i in range(n_traces)]
        for seq_name, seq in sequences:
            mc, err = monte_carlo_phi_squared(traces, seq)
            ref = mode_sum_phi_squared(model, geom, lat, seq)
            z = (mc - ref) / err
            worst = max(worst, abs(z))
            parts.append(f"{name}/{seq_name} z={z:+.2f}")
    ok = worst < 3.0
    line = verdict(7, ok, f"worst |z| = {worst:.2f} (required < 3, "
                          f"{n_traces} traces, L=64): " + ", ".join(parts))
    assert ok, line


def _quadrature_grid(model_kind, taus):
    ds = np.geomspace(1.0, 10.0, 5)
    Ts = np.array([0.80, 0.88, 0.94, 1.06, 1.12, 1.20, 1.30])
    rows_d, rows_t, rows_T, rows_y = [], [], [], []
    for d in ds:
        for T in Ts:
            xi = 1.0 / math.sqrt(abs(T - 1.0))
            if model_kind == "A":
                m = ModelA(gamma0=1.0, J=1.0, xi=xi, T=T)
            else:
                m = ModelB(J=1.0, sigma_s=1.0, xi=xi, T=T)
            curve = decoherence_curve(taus, PulseSequence.ramsey(1.0), m,
                                      GeometryConfig(d=d), tol_omega=1e-6)
            rows_d.extend([d] * taus.size)
            rows_t.extend(taus.tolist())
            rows_T.extend([T] * taus.size)
            rows_y.extend(curve.phi_sq.tolist())
    return SweepGrid(d=np.array(rows_d), tau=np.array(rows_t),
                     T=np.array(rows_T), phi_sq=np.array(rows_y))


def test_criterion_08_exponent_recovery():
    results, ok_all, parts = {}, True, []
    for kind, taus, z_true in [("A", np.geomspace(3.0, 300.0, 8), 2.0),
                               ("B", np.geomspace(10.0, 1e4, 8), 4.0)]:
        grid = _quadrature_grid(kind, taus)
        res = classical_collapse(grid, seed=0)
        ok = (abs(res.nu - 0.5) <= 0.1 and abs(res.eta) <= 0.1
              and abs(res.z - z_true) <= 0.1
              and abs(res.critical_value - 1.0) <= 0.02)
        ok_all = ok_all and ok
        parts.append(f"Model{kind}: nu={res.nu:.3f} eta={res.eta:+.3f} "
                     f"z={res.z:.3f} T_c={res.critical_value:.4f}")
    line = verdict(8, ok_all, "; ".join(parts) +
                   " (required nu=0.5, eta=0, z=2/4 each +-0.1, T_c +-2%)")
    assert ok_all, line


def test_criterion_09_quantum_temperature_laws():
    Ts = np.geomspace(0.1, 1.0, 6)
    crit = [table1_quantum(O3Regime(c=1.0, T=T, delta=0.0, side="critical"),
                           T, 1.0, 1.0) for T in Ts]
    s_crit = float(np.polyfit(np.log(Ts), np.log(crit), 1)[0])
    xs = np.linspace(30.0, 60.0, 5)
    para = [table1_quantum(O3Regime(c=1.0, T=1.0 / x, delta=1.0,
                                    side="paramagnet"),
                           1.0 / x, 1.0, 1.0, delta=1.0) for x in xs]
    s_para = float(np.polyfit(xs, np.log(para), 1)[0])
    ok = abs(s_crit - 3.0) <= 0.1 and abs(s_para + 2.0) <= 0.1
    line = verdict(9, ok, f"critical d(log phi^2)/d(log T) = {s_crit:.4f} "
                          f"(required 3.0 +- 0.1); paramagnet "
                          f"d(ln phi^2)/d(Delta/T) = {s_para:.4f} "
                          f"(required -2.0 +- 0.1)")
    assert ok, line


def test_criterion_10_t1_overlay():
    m = ModelA(gamma0=1.0, J=1.0, xi=1.0, T=1.0)
    geom = GeometryConfig(d=1.0)
    taus = np.geomspace(0.1, 10.0, 20)
    curve = decoherence_curve(taus, PulseSequence.ramsey(1.0), m, geom,
                              tol_omega=1e-6)
    t1 = 7.0
    with_t1 = coherence(taus, QubitParams(t1=t1), curve.phi_sq)
    without = coherence(taus, QubitParams(t1=math.inf), curve.phi_sq)
    worst = float(np.max(np.abs(with_t1 / (without * np.exp(-taus / t1)) - 1.0)))
    ok = worst <= 1e-12
    line = verdict(10, ok, f"worst relative deviation = {worst:.2e} "
                           f"(required <= 1e-12 at 20 tau points)")
    assert ok, line
