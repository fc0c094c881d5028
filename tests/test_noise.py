import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import critspec.noise
from critspec.filters import GeometryConfig, PulseSequence, filter_function, jump_weights
from critspec.models import ModelA, ModelB, O3Regime, o3_transport, structure_factor
from critspec.noise import (
    DecoherenceCurve,
    NoCrossingError,
    QubitParams,
    coherence,
    cpmg_closed_form,
    decoherence_curve,
    filter_weight_integral,
    noise_spectral_density,
    ou_phase_kernel,
    phi_squared,
    sequence_at,
    t2_extract,
)
from critspec.quadrature import QuadratureError, integrate, kronrod_panels

from conftest import make_sequence, radial_phi_squared, sequence_double_integral


def quad_noise_density(model, d, omega, breakpoints=(), epsrel=None):
    # independent reference: direct q-quadrature of the filtered structure
    # factor, no shared code with the production integrator; with epsrel,
    # quad runs to that relative error and no absolute one
    def f(q):
        return (q**3 * math.exp(-2.0 * q * d)
                * structure_factor(model, q, omega) / (2.0 * math.pi))

    eps = {} if epsrel is None else {"epsabs": 0.0, "epsrel": epsrel}
    val, _ = quad(f, 0.0, 40.0 / d, limit=300,
                  points=[*breakpoints, 0.5 / d, 1.5 / d, 3.0 / d], **eps)
    return val


def test_noise_density_matches_independent_quad():
    m = ModelA(gamma0=1.0, J=1.0, xi=2.0, T=1.0)
    geom = GeometryConfig(d=1.0)
    for w in [0.0, 0.3, 2.0, 11.0]:
        ref = quad_noise_density(m, 1.0, w)
        assert noise_spectral_density(w, m, geom) == pytest.approx(ref, rel=1e-7)


def test_noise_density_dc_frozen_value():
    m = ModelA(gamma0=1.0, J=1.0, xi=2.0, T=1.0)
    val = noise_spectral_density(0.0, m, GeometryConfig(d=1.0))
    assert val == pytest.approx(0.04905243634888346, rel=1e-9)


def test_far_field_static_closed_form():
    # d >> xi: N(0) -> (T xi^4/(pi Gamma0 J^2)) * 3/(8 d^4)
    xi, d = 0.3, 15.0
    m = ModelA(gamma0=0.7, J=1.2, xi=xi, T=0.9)
    expect = 0.9 * xi**4 / (math.pi * 0.7 * 1.2**2) * 3.0 / (8.0 * d**4)
    val = noise_spectral_density(0.0, m, GeometryConfig(d=d))
    assert val == pytest.approx(expect, rel=5e-3)


def test_noise_density_even_nonnegative_and_array():
    m = ModelB(sigma_s=1.0, J=1.0, xi=2.0, T=1.0)
    geom = GeometryConfig(d=1.0)
    w = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    vals = noise_spectral_density(w, m, geom)
    assert vals.shape == w.shape
    assert np.all(vals >= 0.0)
    np.testing.assert_allclose(vals, vals[::-1], rtol=1e-12)


@pytest.mark.parametrize("m", [ModelB(sigma_s=1.0, J=1.0, xi=2.0, T=1.0),
                               ModelA(gamma0=1.0, J=1.0, xi=math.inf, T=1.0)])
def test_noise_density_does_not_depend_on_omega_order(m):
    # omegas are sorted into blocks, one q-integral each; the order they come
    # in must not change a value
    geom = GeometryConfig(d=1.0)
    w = np.concatenate(([0.0], np.geomspace(1e-3, 30.0, 17)))
    perm = np.random.default_rng(3).permutation(w.size)
    vals, errs = noise_spectral_density(w, m, geom, full_output=True)
    pv, pe = noise_spectral_density(w[perm], m, geom, full_output=True)
    assert np.array_equal(pv, vals[perm]) and np.array_equal(pe, errs[perm])
    one = [noise_spectral_density(x, m, geom) for x in w[[1, 9, 17]]]
    np.testing.assert_allclose(vals[[1, 9, 17]], one, rtol=1e-7)


def test_zero_temperature_noise_vanishes():
    m = ModelA(gamma0=1.0, J=1.0, xi=1.0, T=0.0)
    assert noise_spectral_density(0.7, m, GeometryConfig(d=1.0)) == 0.0


def test_critical_dc_noise_diverges():
    geom = GeometryConfig(d=1.0)
    a = ModelA(gamma0=1.0, J=1.0, xi=math.inf, T=1.0)
    b = ModelB(sigma_s=1.0, J=1.0, xi=math.inf, T=1.0)
    assert math.isinf(noise_spectral_density(0.0, a, geom))
    assert math.isinf(noise_spectral_density(0.0, b, geom))


# Model B at xi = 1 has r_q = q^2 (q^2 + 1), so a slow rate resonates at
# q_r ~ sqrt(rate), far below the first shared panel edge 0.05/d.  No Kronrod
# node of that panel sees a feature there; the q-integral must place its own
# edges down to q_r or miss its tolerance while reporting that it met it.
SLOW_B = ModelB(sigma_s=1.0, J=1.0, xi=1.0, T=1.0)


def slow_b_resonance(rate):
    return math.sqrt(0.5 * (math.sqrt(1.0 + 4.0 * rate) - 1.0))


def test_phi_squared_resolves_a_resonance_below_the_first_edge():
    tau, d, tol = 10**7.5, 0.3, 1e-8
    seq, switches = make_sequence("hahn", tau)
    ref = radial_phi_squared(
        tau, switches, d=d,
        chi_fn=lambda q: 1.0 / (q * q + 1.0),
        rate_fn=lambda q: q * q * (q * q + 1.0),
        temperature=1.0,
        breakpoints=[slow_b_resonance(1.0 / tau), 0.5 / d, 1.5 / d], epsrel=1e-12)
    val, err, _ = phi_squared(tau, seq, SLOW_B, GeometryConfig(d=d), tol_q=tol,
                              full_output=True)
    assert abs(val - ref) <= tol * ref
    assert abs(val - ref) <= err


@pytest.mark.parametrize("omega", [[1e-9], [0.0, 1e-9]], ids=["slow", "with-dc"])
def test_noise_density_resolves_a_resonance_below_the_first_edge(omega):
    # with omega = 0 in the same block, the ladder must still start from
    # the slowest positive rate: 0 resonates nowhere
    d, tol = 10.0, 1e-8
    vals, errs = noise_spectral_density(np.array(omega), SLOW_B, GeometryConfig(d=d),
                                        tol_q=tol, full_output=True)
    for w, val, err in zip(omega, vals, errs):
        points = [slow_b_resonance(w)] if w > 0.0 else []
        ref = quad_noise_density(SLOW_B, d, w, breakpoints=points, epsrel=1e-12)
        assert abs(val - ref) <= tol * ref
        assert abs(val - ref) <= err


def test_tol_q_sets_the_work():
    # the q-integral's panel edges do not fix its work: a tighter request
    # refines further
    m = ModelA(gamma0=1.0, J=1.0, xi=5.0, T=1.0)
    taus = np.geomspace(0.1, 1e3, 12)
    work = [decoherence_curve(taus, PulseSequence.cpmg(8, 1.0), m, GeometryConfig(d=3.0),
                              tol_q=tol).provenance["n_eval"] for tol in (1e-8, 1e-12)]
    assert work[1] > work[0]


def test_phi_squared_vs_radial_reference_model_a():
    m = ModelA(gamma0=1.0, J=1.0, xi=2.0, T=1.0)
    geom = GeometryConfig(d=1.0)
    tau = 3.0
    for name in ["ramsey", "hahn"]:
        seq, switches = make_sequence(name, tau)
        ref = radial_phi_squared(
            tau, switches, d=1.0,
            chi_fn=lambda q: 1.0 / (q * q + 0.25),
            rate_fn=lambda q: q * q + 0.25,
            temperature=1.0,
            breakpoints=[0.5, 1.5])
        val = phi_squared(tau, seq, m, geom, tol_omega=1e-7)
        assert val == pytest.approx(ref, rel=2e-6)


def test_phi_squared_model_b_critical_vs_radial_reference():
    m = ModelB(sigma_s=1.0, J=1.0, xi=math.inf, T=1.0)
    geom = GeometryConfig(d=1.0)
    tau = 1e3
    ref = radial_phi_squared(
        tau, [], d=1.0,
        chi_fn=lambda q: 1.0 / (q * q),
        rate_fn=lambda q: q**4,
        temperature=1.0,
        breakpoints=[tau ** -0.25, 0.5, 1.5])
    val, err, diag = phi_squared(tau, PulseSequence.ramsey(tau), m, geom,
                                 tol_omega=1e-7, full_output=True)
    assert val == pytest.approx(ref, rel=2e-6)
    assert diag["path"] == "time_domain"
    assert err < 1e-4 * val


def mp_jump_pair_kernel(rates, tau, grid, switches):
    """Q(r) from the jump-pair sum in 60-digit arithmetic.

    Switch instants are integers on a grid of tau/grid, so pair separations
    are exact integers and pairs at equal separation are summed first.
    """
    mpmath = pytest.importorskip("mpmath")
    times = np.array([0] + list(switches) + [grid], dtype=np.int64)
    n = len(switches)
    jumps = np.array([1] + [2 * (-1) ** (i + 1) for i in range(n)] + [-((-1) ** n)],
                     dtype=np.int64)
    j, k = np.triu_indices(times.size, 1)
    coef = np.zeros(grid + 1, dtype=np.int64)
    np.add.at(coef, times[k] - times[j], -2 * jumps[j] * jumps[k])
    seps = np.flatnonzero(coef)
    out = []
    with mpmath.workdps(60):
        for rate in rates:
            r = mpmath.mpf(float(rate))
            total = mpmath.mpf(0)
            for u in seps:
                x = r * mpmath.mpf(float(tau)) * int(u) / grid
                total += int(coef[u]) * (x + mpmath.expm1(-x)) / (r * r)
            out.append(float(total))
    return np.array(out)


@pytest.mark.parametrize("name", ["ramsey", "hahn", "cpmg-8", "cpmg-512", "custom"])
def test_ou_kernel_matches_high_precision_jump_pairs(name):
    tau = 2.0
    if name == "ramsey":
        seq, grid, sw = PulseSequence.ramsey(tau), 1, []
    elif name == "custom":
        # unequal gaps, two of them repeated, on a grid of tau/16
        sw = [3, 5, 7, 12]
        seq, grid = PulseSequence.custom([tau * s / 16 for s in sw], tau), 16
    else:
        n = 1 if name == "hahn" else int(name.split("-")[1])
        seq, grid, sw = PulseSequence.cpmg(n, tau), 2 * n, list(range(1, 2 * n, 2))
    rates = np.geomspace(1e-3, 1e3, 13) / tau
    ref = mp_jump_pair_kernel(rates, tau, grid, sw)
    got = ou_phase_kernel(rates, seq)[:, 0]
    np.testing.assert_allclose(got, ref, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("n", [8, 64])
def test_test_reference_matches_high_precision_jump_pairs(n):
    # the double-precision reference behind radial_phi_squared must hold
    # 1e-9 down to r tau = 2e-4, where a plain pair sum cancels
    tau = 2.0
    _, switches = make_sequence(f"cpmg-{n}", tau)
    rates = np.geomspace(2e-4, 2e4, 25) / tau
    ref = mp_jump_pair_kernel(rates, tau, 2 * n, list(range(1, 2 * n, 2)))
    got = [sequence_double_integral(r, switches, tau) for r in rates]
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0.0)


def test_ou_kernel_tau_columns_rescale_the_sequence():
    seq = PulseSequence.cpmg(3, 1.0)
    rates = np.array([0.0, 0.2, 5.0])
    grid = ou_phase_kernel(rates, seq, [1.0, 4.0])
    assert grid.shape == (3, 2)
    np.testing.assert_array_equal(grid[:, 1], ou_phase_kernel(rates, PulseSequence.cpmg(3, 4.0))[:, 0])
    # a frozen mode sees (int f)^2, which vanishes for an even segment count
    assert grid[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert ou_phase_kernel([0.0], PulseSequence.ramsey(3.0))[0, 0] == pytest.approx(9.0)


def _reference_ou_kernel(rates, seq, taus=None):
    # ou_phase_kernel as it was when every run took its own transcendentals
    c1, c3, c5, c7, c9 = critspec.noise._STEADY_SERIES
    r = np.asarray(rates, dtype=float).reshape(-1, 1)
    t = np.asarray(seq.tau if taus is None else taus, dtype=float).reshape(1, -1)
    out = np.zeros((r.shape[0], t.shape[1]))
    u = np.zeros_like(out)
    for frac, k in seq.runs:
        ell = frac * t
        x = r * ell
        pos = x > 0.0
        xs = np.where(pos, x, 1.0)
        a = ell * np.where(pos, -np.expm1(-x) / xs, 1.0)
        th = np.tanh(0.5 * x)
        w = ell * np.where(pos, th / xs, 0.5)
        x2 = x * x
        series = x * (c1 + x2 * (c3 + x2 * (c5 + x2 * (c7 + x2 * c9))))
        steady = 2.0 * ell**2 * np.where(x < 0.1, series, (x - 2.0 * th) / xs**2)
        ekx = np.exp(-k * x)
        if k % 2:
            g, power = 1.0 + ekx, -ekx
        else:
            g, power = -np.expm1(-k * x), ekx
        delta = u + w
        out += k * steady + 2.0 * a * delta * g / (1.0 + np.exp(-x))
        u = power * delta - w
    return out


@pytest.mark.parametrize("name", ["ramsey", "hahn", "cpmg-8", "cpmg-128", "cpmg-512", "custom"])
def test_ou_kernel_per_length_terms_change_no_bit(name):
    # the transcendentals taken once per distinct segment length give the
    # per-run loop's Q bit for bit; the custom sequence repeats two gap
    # lengths in separate runs, as CPMG repeats its half segments
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(40):
        tau = float(10.0 ** rng.uniform(-2.0, 3.0))
        if name == "custom":
            seq = PulseSequence.custom([tau * s for s in (0.1, 0.3, 0.5, 0.6, 0.7, 0.9)], tau)
        else:
            seq, _ = make_sequence(name, tau)
        rates = np.concatenate(([0.0], 10.0 ** rng.uniform(-8.0, 5.0, int(rng.integers(1, 200)))))
        taus = tau * 10.0 ** rng.uniform(-1.5, 1.5, int(rng.integers(1, 17)))
        assert np.array_equal(ou_phase_kernel(rates, seq, taus),
                              _reference_ou_kernel(rates, seq, taus))
    assert np.array_equal(ou_phase_kernel(rates, seq), _reference_ou_kernel(rates, seq))


def test_o3_paramagnet_meets_tolerance():
    # the slow-diffusion paramagnet puts its q-structure at q ~ 1e-3, far
    # below the momentum filter's own scale 1/d
    m = O3Regime(c=1.0, T=0.2, delta=1.0, side="paramagnet")
    chi_u, d_s = o3_transport(m)
    geom = GeometryConfig(d=2.0)
    for name, tau in (("ramsey", 100.0), ("hahn", 10.0)):
        seq, switches = make_sequence(name, tau)
        q1 = math.sqrt(1.0 / (d_s * tau))
        ref = radial_phi_squared(
            tau, switches, d=2.0, chi_fn=lambda q: chi_u,
            rate_fn=lambda q: d_s * q * q, temperature=0.2,
            breakpoints=[0.5 * q1, q1, 2.0 * q1, 4.0 * q1, 0.25, 0.75])
        assert phi_squared(tau, seq, m, geom) == pytest.approx(ref, rel=1e-6)


def test_model_spectrum_through_the_omega_path_agrees():
    # the two integration orders: q then omega (the model's N(omega) fed in
    # as a spectrum) and q of the time-domain kernel
    m = ModelA(gamma0=1.0, J=1.0, xi=2.0, T=1.0)
    geom = GeometryConfig(d=1.0)
    seq = PulseSequence.hahn(3.0)
    v_w, e_w, d_w = phi_squared(3.0, seq, tol_omega=1e-7, full_output=True,
                                spectrum=lambda w: noise_spectral_density(w, m, geom))
    v_t, e_t, d_t = phi_squared(3.0, seq, m, geom, full_output=True)
    assert (d_w["path"], d_t["path"]) == ("omega", "time_domain")
    assert abs(v_w - v_t) <= e_w + e_t


def test_single_mode_lorentzian_reduces_to_ou_variance():
    # flat-q single mode: N(w) = 2 v r/(r^2+w^2) must integrate against the
    # filter to exactly v * Q(r) for every sequence
    v, r = 0.83, 0.37
    tau = 5.0
    for name in ["ramsey", "hahn", "cpmg-3"]:
        seq, switches = make_sequence(name, tau)
        val = phi_squared(tau, seq,
                          spectrum=lambda w: 2.0 * v * r / (r * r + w * w),
                          tol_omega=1e-9)
        ref = v * sequence_double_integral(r, switches, tau)
        assert val == pytest.approx(ref, rel=1e-8)


def _lorentzian_error_cases():
    # criterion 05's inputs, then Ramsey, Hahn and CPMG-8/64/256 with the
    # rate at 0.05, 1 and 20 times pi n_seg/tau, then the bench's spectra
    # seed 603 case, a slow and a fast line under Hahn that missed 1e-9 by
    # 1.018x when each lobe block took the whole tolerance
    wp = 32.0 * math.pi
    for ratio in np.geomspace(0.01, 100.0, 21):
        yield PulseSequence.cpmg(32, 1.0), 1e-9, [(1.0, ratio * wp)]
    for name in ["ramsey", "hahn", "cpmg-8", "cpmg-64", "cpmg-256"]:
        seq, switches = make_sequence(name, 1.0)
        for tol in (1e-6, 1e-9):
            for factor in (0.05, 1.0, 20.0):
                yield seq, tol, [(1.0, factor * math.pi * (len(switches) + 1) / seq.tau)]
    yield (PulseSequence.hahn(0.8525171992032254), 1e-9,
           [(1.3076916140312815, 0.395101362426578), (1.707054034432428, 143.29940735478797)])


def test_omega_path_error_bounds_the_lorentzian_miss():
    # N = a w0/(w0^2 + w^2) is one OU process of variance a/2, so the exact
    # <phi^2> of a sum of them is sum (a/2) Q(w0); the returned error must
    # cover the miss, which must also be inside the requested tolerance
    for seq, tol, terms in _lorentzian_error_cases():
        exact = sum(0.5 * a * ou_phase_kernel([w0], seq)[0, 0] for a, w0 in terms)
        val, err, _ = phi_squared(
            seq.tau, seq, tol_omega=tol, full_output=True,
            spectrum=lambda w: sum(a * w0 / (w0 * w0 + w * w) for a, w0 in terms))
        label = f"n_seg={seq.switches().size + 1} tol={tol:g} terms={terms}"
        assert abs(val - exact) <= err, label
        assert abs(val - exact) <= tol * exact, label


def test_omega_path_error_bounds_the_miss_for_custom_sequences():
    # irregular switch times share no grid, so the tail bound sums the
    # jump pairs one by one
    seqs = [PulseSequence.custom([0.1, 0.35, 0.8], 1.3),
            PulseSequence.custom(np.sort(np.random.default_rng(1).uniform(0.0, 2.0, 12)), 2.0)]
    for seq in seqs:
        for tol in (1e-6, 1e-9):
            for w0 in (0.5, 5.0, 60.0):
                exact = 0.5 * ou_phase_kernel([w0], seq)[0, 0]
                val, err, _ = phi_squared(seq.tau, seq, tol_omega=tol, full_output=True,
                                          spectrum=lambda w: w0 / (w0 * w0 + w * w))
                assert abs(val - exact) <= err
                assert abs(val - exact) <= tol * exact


@pytest.mark.parametrize("name", ["ramsey", "hahn", "cpmg-8", "cpmg-64", "cpmg-256", "udd-8"])
def test_omega_path_error_covers_a_lorentzian_sweep(name):
    # one OU line at w0 from 0.01 to 100 times pi n_seg/tau; past the last
    # lobe the returned error bounds what the h G(Omega) term leaves, so it
    # must cover the miss, which must also be inside the requested tolerance.
    # udd-8 is Uhrig's eight-pulse sequence, whose switches share no grid.
    if name == "udd-8":
        seq = PulseSequence.custom(1.3 * np.sin(math.pi * np.arange(1, 9) / 18.0) ** 2, 1.3)
    else:
        seq = make_sequence(name, 1.3)[0]
    omega_p = math.pi * (seq.switches().size + 1) / seq.tau
    for tol in (1e-6, 1e-9):
        for w0 in omega_p * np.geomspace(0.01, 100.0, 17):
            exact = 0.5 * ou_phase_kernel([w0], seq)[0, 0]
            val, err, _ = phi_squared(seq.tau, seq, tol_omega=tol, full_output=True,
                                      spectrum=lambda w: w0 / (w0 * w0 + w * w))
            label = f"{name} tol={tol:g} w0={w0:.6g}"
            assert abs(val - exact) <= err, label
            assert abs(val - exact) <= tol * exact, label


@pytest.mark.parametrize("n", [16, 32, 64])
def test_white_noise_meets_a_tight_tolerance_at_large_n(n):
    # for flat N, h = N/omega^2 falls as 1/omega^2 but its slope as
    # 1/omega^3, so the remainder bound lets CPMG-16 to -64 stop well
    # inside the lobe budget at 1e-9
    exact = 0.7 * 1.3
    val, err, _ = phi_squared(1.3, PulseSequence.cpmg(n, 1.3), spectrum=lambda w: 0.7,
                              tol_omega=1e-9, full_output=True)
    assert abs(val - exact) <= err
    assert abs(val - exact) <= 1e-9 * exact


@pytest.mark.parametrize("seq, tol, spectrum, ceiling", [
    (PulseSequence.cpmg(256, 1.0), 1e-9, lambda w: 1200.0 / (1200.0**2 + w * w), 24560),
    (PulseSequence.cpmg(16, 1.3), 1e-6, lambda w: 0.7, 2032),
], ids=["lorentzian-cpmg-256", "flat-cpmg-16"])
def test_omega_path_lobe_count_ceilings(seq, tol, spectrum, ceiling):
    # work guards that read the same on any host, set at the lobe counts
    # where the h'-remainder bound stops the blocks on these inputs
    _, _, diag = phi_squared(seq.tau, seq, spectrum=spectrum, tol_omega=tol, full_output=True)
    assert diag["n_lobes"] <= ceiling


def test_flat_spectrum_sequence_independence():
    level, tau = 0.7, 2.0
    vals = []
    for name in ["ramsey", "hahn", "cpmg-5", "cpmg-32"]:
        seq, _ = make_sequence(name, tau)
        vals.append(phi_squared(tau, seq, spectrum=lambda w: level,
                                tol_omega=1e-7))
    expect = level * tau  # kappa^2 tau N0 with kappa = 1
    for v in vals:
        assert v == pytest.approx(expect, rel=1e-6)


@pytest.mark.parametrize("name", ["ramsey", "hahn", "cpmg-2", "cpmg-5", "cpmg-32", "cpmg-256"])
def test_omega_squared_filter_has_a_period_of_4n_lobes(name):
    # the omega path reads omega^2 W of lobe j from row j mod 4n of one
    # table, n = max(1, N); checked at random points and within 1e-7 of
    # omega = 0 and of the odd harmonics of pi N/tau, where the closed
    # form is 0/0
    seq, switches = make_sequence(name, 1.7)
    n = max(1, len(switches))
    period = 4 * n * math.pi / seq.tau
    w = np.random.default_rng(n).uniform(0.0, period, 200)
    if switches:
        sing = (2 * np.arange(2 * n) + 1) * math.pi * n / seq.tau
        w = np.concatenate([w, sing, sing + 3e-8, sing - 7e-8])
    w = np.concatenate([w, [1e-8, 5e-8, 1e-7]])
    scale = seq.kappa**2 * np.sum(np.abs(jump_weights(seq)[1])) ** 2  # bounds omega^2 W
    here = w**2 * filter_function(w, seq)
    there = (w + period) ** 2 * filter_function(w + period, seq)
    assert np.max(np.abs(here - there)) <= 1e-12 * scale


def _counting_filter(monkeypatch):
    points = [0]

    def counted(w, seq):
        points[0] += np.size(w)
        return filter_function(w, seq)

    monkeypatch.setattr(critspec.noise, "filter_function", counted)
    return points


def _first_period_nodes(seq):
    """The (4n, 15) Kronrod nodes of lobes 0..4n-1, as the lobe blocks place them."""
    n = max(1, seq.switches().size)
    edges = math.pi / seq.tau * np.arange(4 * n + 1)
    nodes = []
    kronrod_panels(edges[:-1], edges[1:], lambda x: nodes.append(x.copy()) or x)
    return nodes[0]


@pytest.mark.parametrize("name", ["ramsey", "hahn", "cpmg-2", "cpmg-8", "cpmg-64", "cpmg-256"])
@pytest.mark.parametrize("kappa", [1.0, 1.7])
def test_fft_table_is_the_filter_on_one_period(name, kappa):
    # the (4n, 15) table of omega^2 W is one FFT of the jump train; on the
    # nodes of lobes 0..4n-1 it is the segment sum times omega^2, within
    # 2e-13 of the bound kappa^2 (sum |J_k|)^2 on omega^2 W
    seq = replace(make_sequence(name, 1.3)[0], kappa=kappa)
    x = _first_period_nodes(seq)
    table = critspec.noise._LobeFilter(seq)(0, x) * x**2
    scale = kappa**2 * np.sum(np.abs(jump_weights(seq)[1])) ** 2
    assert table.shape == x.shape
    assert np.max(np.abs(table - filter_function(x, seq) * x**2)) <= 2e-13 * scale


@pytest.mark.parametrize("name", ["ramsey", "hahn", "cpmg-8"])
def test_omega_path_evaluates_the_filter_on_one_period(monkeypatch, name):
    # every lobe block here passes its first round, so W comes from the FFT
    # table alone and the filter function runs on no node
    seq, switches = make_sequence(name, 1.3)
    n = max(1, len(switches))
    points = _counting_filter(monkeypatch)
    for spectrum in (lambda w: 0.7, lambda w: 3.0 / (9.0 + w * w)):
        points[0] = 0
        _, _, diag = phi_squared(seq.tau, seq, spectrum=spectrum, tol_omega=1e-9,
                                 full_output=True)
        assert diag["n_lobes"] > 4 * n
        assert points[0] == 0
    filter_weight_integral(seq)
    assert points[0] == 0


def test_custom_sequence_shares_the_lobe_blocks():
    # a custom sequence on the CPMG-8 grid evaluates every node of its own
    # lobes, where CPMG-8 reads its table: the same lobes, nodes and stops
    tau = 1.3
    cpmg, switches = make_sequence("cpmg-8", tau)
    custom = PulseSequence.custom(switches, tau)
    for tol in (1e-6, 1e-9):
        for w0 in (2.0, 40.0):
            spectrum = lambda w: w0 / (w0 * w0 + w * w)
            v1, e1, d1 = phi_squared(tau, cpmg, spectrum=spectrum, tol_omega=tol,
                                     full_output=True)
            v2, e2, d2 = phi_squared(tau, custom, spectrum=spectrum, tol_omega=tol,
                                     full_output=True)
            assert (d1["n_lobes"], d1["n_eval"]) == (d2["n_lobes"], d2["n_eval"])
            assert v2 == pytest.approx(v1, rel=1e-13, abs=0)
            exact = 0.5 * ou_phase_kernel([w0], cpmg)[0, 0]
            assert abs(v2 - exact) <= min(e2, tol * exact)
    assert filter_weight_integral(custom)[0] == pytest.approx(
        filter_weight_integral(cpmg)[0], rel=1e-13, abs=0)


@pytest.mark.parametrize("name", ["ramsey", "cpmg-8", "custom"])
@pytest.mark.parametrize("flat", [False, True])
def test_lobe_block_first_round_is_integrates_first_round(name, flat):
    # the lobe path reads W from a one-period table (a custom sequence
    # evaluates it) and multiplies N in place; integrate evaluates f = W N/pi
    # on the same lobe edges, so on the same nodes.  CPMG-8's table holds 32
    # lobes, so the later blocks wrap; a flat spectrum returns a float.
    tau = 1.3
    seq, switches = make_sequence("cpmg-8" if name == "custom" else name, tau)
    if name == "custom":
        seq = PulseSequence.custom(switches, tau)
    spectrum = (lambda w: 1.0) if flat else (lambda w: 40.0 / (1600.0 + w * w))
    lobes = critspec.noise._LobeFilter(seq)
    h = math.pi / tau
    for k, k_hi in ((0, 16), (16, 48), (48, 112)):
        v1, e1, i1 = critspec.noise._lobe_block(seq, spectrum, lobes, k, k_hi, rtol=1.0)
        v2, e2, i2 = integrate(lambda w: filter_function(w, seq) * spectrum(w) / math.pi,
                               k * h, k_hi * h, rtol=1.0, edges=h * np.arange(k + 1, k_hi),
                               max_panels=k_hi - k)
        assert i1 == i2 == {"n_panels": k_hi - k, "n_eval": 15 * (k_hi - k)}
        assert abs(v1 - v2) <= 1e-14 * v2
        assert abs(e1 - e2) <= 1e-14 * v2


# an omega-path integral over 57,328 lobes and a 40-tau q-integral curve,
# printed to the last bit
_THREAD_SCRIPT = """
import numpy as np
from critspec.filters import GeometryConfig, PulseSequence
from critspec.models import ModelA
from critspec.noise import decoherence_curve, phi_squared
w0 = 800.0
print(repr(phi_squared(1.0, PulseSequence.cpmg(256, 1.0), tol_omega=1e-9, full_output=True,
                       spectrum=lambda w: w0 / (w0 * w0 + w * w))))
curve = decoherence_curve(np.geomspace(0.01, 100.0, 40), PulseSequence.ramsey(1.0),
                          ModelA(gamma0=1.0, J=1.0, xi=3.0, T=1.0), GeometryConfig(d=1.0))
print(curve.phi_sq.tobytes().hex(), curve.errors.tobytes().hex(), curve.provenance)
"""


def test_blas_thread_count_does_not_change_output():
    # the Kronrod node grids and sums are BLAS matrix products; one and two
    # BLAS threads must give the same bytes
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", _THREAD_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        outputs.append(run.stdout)
    assert "'path': 'omega'" in outputs[0] and "'path': 'time_domain'" in outputs[0]
    assert outputs[0] == outputs[1]


def test_unresolvable_spectrum_raises_instead_of_missing_tolerance():
    # a spectrum that toggles every 1/3000 in omega cannot be resolved to
    # 1e-9 within the panel cap; the omega path must refuse, not return a
    # value whose error estimate is 3e-4
    def spectrum(w):
        aw = np.abs(w)
        return np.where(aw < 20.0, 1.0 + np.mod(np.floor(3000.0 * aw), 2.0), 1.0)

    with pytest.raises(QuadratureError):
        phi_squared(1.0, PulseSequence.ramsey(1.0), spectrum=spectrum, tol_omega=1e-9)


def test_monotone_in_tau_and_distance():
    m = ModelA(gamma0=1.0, J=1.0, xi=1.0, T=1.0)
    taus = np.geomspace(0.3, 30.0, 6)
    curve = decoherence_curve(taus, PulseSequence.ramsey(1.0), m,
                              GeometryConfig(d=1.0), tol_omega=1e-6)
    assert np.all(np.diff(curve.phi_sq) > 0)
    by_d = [phi_squared(3.0, PulseSequence.ramsey(3.0), m, GeometryConfig(d=d),
                        tol_omega=1e-6) for d in [0.5, 1.0, 2.0, 4.0]]
    assert all(a > b for a, b in zip(by_d, by_d[1:]))


def test_halving_tolerances_stays_within_error():
    m = ModelB(sigma_s=1.0, J=1.0, xi=3.0, T=1.0)
    geom = GeometryConfig(d=1.0)
    seq = PulseSequence.cpmg(5, 20.0)
    v1, e1, _ = phi_squared(20.0, seq, m, geom, tol_omega=1e-5, tol_q=1e-7,
                            full_output=True)
    v2, e2, _ = phi_squared(20.0, seq, m, geom, tol_omega=5e-6, tol_q=5e-8,
                            full_output=True)
    assert abs(v1 - v2) <= e1 + e2


def test_t2_refinement_evaluates_each_tau_once(monkeypatch):
    # the refinement integrates no tau twice
    m = ModelA(gamma0=1.0, J=1.0, xi=1.0, T=1.0)
    curve = decoherence_curve(np.geomspace(1.0, 100.0, 6), PulseSequence.ramsey(1.0), m,
                              GeometryConfig(d=0.5))
    asked = []
    live = curve.evaluate
    monkeypatch.setattr(curve, "evaluate",
                        lambda t: asked.extend(np.atleast_1d(t).tolist()) or live(t))
    t2 = t2_extract(curve)
    assert len(asked) == len(set(asked)) >= 3
    assert 2.0 * live(t2) == pytest.approx(1.0, rel=1e-9)


def test_t2_bracket_ends_are_the_curve_samples(monkeypatch):
    # the crossing's bracket comes from the curve's own samples, so no
    # sampled tau is integrated again
    m = ModelA(gamma0=1.0, J=1.0, xi=1.0, T=1.0)
    curve = decoherence_curve(np.geomspace(1.0, 100.0, 6), PulseSequence.ramsey(1.0), m,
                              GeometryConfig(d=0.5))
    asked = []
    live = curve.evaluate
    monkeypatch.setattr(curve, "evaluate",
                        lambda t: asked.extend(np.atleast_1d(t).tolist()) or live(t))
    t2 = t2_extract(curve)
    assert asked and not set(asked) & set(curve.taus.tolist())
    assert 2.0 * live(t2) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("tol_q", [1e-5, 1e-8])
def test_t2_root_is_as_accurate_as_the_curve(tol_q):
    # brentq stops at a tenth of the curve's rtol; at the t2 it returns,
    # 2 <phi^2> - 1 evaluated far tighter is within a few times that rtol
    m = ModelB(sigma_s=1.0, J=1.0, xi=3.0, T=1.0)
    seq, geom = PulseSequence.cpmg(4, 1.0), GeometryConfig(d=0.7)
    curve = decoherence_curve(np.geomspace(0.5, 500.0, 7), seq, m, geom, tol_q=tol_q)
    t2 = t2_extract(curve)
    assert abs(2.0 * phi_squared(t2, seq, m, geom, tol_q=1e-12) - 1.0) <= 3.0 * tol_q


def _t2_case():
    # the model, sequence and geometry of test_t2_root_is_as_accurate_as_the_curve
    return ModelB(sigma_s=1.0, J=1.0, xi=3.0, T=1.0), PulseSequence.cpmg(4, 1.0), \
        GeometryConfig(d=0.7)


def test_evaluate_at_the_curve_taus_is_the_curve():
    m, seq, geom = _t2_case()
    curve = decoherence_curve(np.geomspace(0.5, 500.0, 7), seq, m, geom)
    assert np.array_equal(curve.evaluate(curve.taus), curve.phi_sq)


def test_evaluate_at_a_scalar_is_phi_squared():
    m, seq, geom = _t2_case()
    curve = decoherence_curve(np.geomspace(0.5, 500.0, 7), seq, m, geom,
                              tol_omega=3e-8, tol_q=2e-8)
    got = curve.evaluate(17.3)
    assert type(got) is float
    assert got == phi_squared(17.3, seq, m, geom, tol_omega=3e-8, tol_q=2e-8)


def _counted(monkeypatch, curve):
    calls = []
    live = curve.evaluate
    monkeypatch.setattr(curve, "evaluate", lambda t: calls.append(np.size(t)) or live(t))
    return calls


@pytest.mark.parametrize("tol_q", [1e-5, 1e-8])
def test_t2_converges_past_a_zero_sample_below_the_crossing(monkeypatch, tol_q):
    # phi_sq == 0 at the bracket's lower end: ln 2<phi^2> is -inf there, so
    # that end takes the midpoint and the linear secant, and no nan appears
    m, seq, geom = _t2_case()
    curve = decoherence_curve(np.geomspace(0.5, 500.0, 7), seq, m, geom, tol_q=tol_q)
    k = int(np.argmax(2.0 * curve.phi_sq >= 1.0)) - 1
    zeroed = replace(curve, phi_sq=np.where(np.arange(curve.taus.size) == k, 0.0, curve.phi_sq))
    calls = _counted(monkeypatch, zeroed)
    t2 = t2_extract(zeroed)
    assert curve.taus[k] < t2 < curve.taus[k + 1]
    assert abs(2.0 * phi_squared(t2, seq, m, geom, tol_q=1e-12) - 1.0) <= 3.0 * tol_q
    tol = 0.1 * tol_q
    bound = math.ceil(math.log2(math.log(curve.taus[k + 1] / curve.taus[k]) / math.log1p(tol))) + 1
    assert len(calls) <= bound


@pytest.mark.parametrize("tol_q", [1e-5, 1e-8])
@pytest.mark.parametrize("below", [10**1.5, 1.2], ids=["mid-bracket", "near-lower-end"])
def test_t2_stops_within_the_halving_bound_on_a_sparse_curve(monkeypatch, tol_q, below):
    # samples three decades apart, the root mid-bracket or near its lower
    # end, so the cubic through the four nearest is a poor guess; the ln-tau
    # midpoint still halves the bracket every call
    m, seq, geom = _t2_case()
    lo = 17.5918 / below  # T2 of this case is 17.5918...
    curve = decoherence_curve(lo * np.array([1e-3, 1.0, 1e3, 1e6]), seq, m, geom, tol_q=tol_q)
    calls = _counted(monkeypatch, curve)
    t2 = t2_extract(curve)
    assert lo < t2 < 1e3 * lo
    assert abs(2.0 * phi_squared(t2, seq, m, geom, tol_q=1e-12) - 1.0) <= 3.0 * tol_q
    tol = 0.1 * tol_q
    assert len(calls) <= math.ceil(math.log2(math.log(1e3) / math.log1p(tol))) + 1
    assert all(n <= 16 for n in calls)


def test_t2_halving_bound_holds_where_the_cubic_misleads(monkeypatch):
    # a synthetic curve, ln 2<phi^2> = sinh(ln tau - x0), far from the cubic
    # through its samples: each call still halves the bracket in ln tau
    x0, tol = 0.37, 1e-9

    def two_phi_sq(t):
        return np.exp(np.sinh(np.log(t) - x0))

    taus = np.array([1e-1, 1.0, 1e3, 1e4]) / 30.0
    curve = DecoherenceCurve(taus=taus, phi_sq=0.5 * two_phi_sq(taus), errors=0.0 * taus,
                             seq=PulseSequence.ramsey(1.0), model=None, geom=None,
                             provenance={"rtol": 10.0 * tol})
    calls = []
    monkeypatch.setattr(curve, "evaluate",
                        lambda t: calls.append(np.size(t)) or 0.5 * two_phi_sq(np.asarray(t)))
    t2 = t2_extract(curve)
    assert t2 == pytest.approx(math.exp(x0), rel=2.0 * tol, abs=0)
    assert len(calls) <= math.ceil(math.log2(math.log(1e3) / math.log1p(tol))) + 1


def test_t2_no_crossing_error_carries_bracket():
    # 2 <phi^2> stays below 0.07 over these taus
    m = ModelA(gamma0=1.0, J=1.0, xi=1.0, T=1.0)
    curve = decoherence_curve(np.geomspace(0.1, 1.0, 8), PulseSequence.ramsey(1.0), m,
                              GeometryConfig(d=0.5))
    with pytest.raises(NoCrossingError) as exc:
        t2_extract(curve)
    assert exc.value.bracket == pytest.approx(2.0 * curve.phi_sq[[0, -1]], rel=1e-12, abs=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_decoherence_curve_rejects_non_finite_taus(bad):
    m = ModelA(gamma0=1.0, J=1.0, xi=1.0, T=1.0)
    with pytest.raises(ValueError, match="taus must be positive and finite"):
        decoherence_curve([1.0, bad], PulseSequence.ramsey(1.0), m, GeometryConfig(d=1.0))


@pytest.mark.parametrize("with_model, with_geom", [(True, True), (True, False), (False, True)])
def test_phi_squared_rejects_a_spectrum_beside_a_model_or_geometry(with_model, with_geom):
    # the omega path reads the spectrum alone, so a model or geometry would go unread
    m = ModelA(gamma0=1.0, J=1.0, xi=1.0, T=1.0) if with_model else None
    geom = GeometryConfig(d=1.0) if with_geom else None
    with pytest.raises(ValueError, match="spectrum alone"):
        phi_squared(1.0, PulseSequence.ramsey(1.0), m, geom, spectrum=np.ones_like)


def test_coherence_overlay_factorizes():
    q_inf = QubitParams(t1=math.inf)
    q_fin = QubitParams(t1=2.5)
    phi2 = 0.42
    assert coherence(1.3, q_inf, phi2) == pytest.approx(math.exp(-2 * 0.42))
    assert coherence(1.3, q_fin, phi2) == pytest.approx(
        math.exp(-2 * 0.42) * math.exp(-1.3 / 2.5), rel=1e-15, abs=0)


def test_cpmg_closed_form_series_matches_direct_form():
    # just below the series switch the direct bracket still has ~6 good
    # digits, enough to validate the expansion at the same argument
    x = 9e-4
    omega0 = 1.0
    omega_p = 0.5 * math.pi * omega0 / x
    val = cpmg_closed_form(1.0, omega0, omega_p, 16.0 / math.pi)
    direct = (16.0 / math.pi) * (math.pi * 1.0 / (16.0 * omega0)) \
        * (1.0 - math.tanh(x) / x)
    assert val == pytest.approx(direct, rel=1e-6)
    with pytest.raises(ValueError):
        cpmg_closed_form(1.0, -1.0, 1.0, 1.0)


def test_filter_weight_integral_conserved():
    # the closed-form tail is 0.3-0.8% of the total and its jump-pair sum
    # 2e-7 to 1e-4 of it, both far above the band; the pairs are merged by
    # lag for Ramsey/CPMG and kept one by one for a custom sequence
    for seq in [PulseSequence.ramsey(2.0), PulseSequence.cpmg(2, 2.0),
                PulseSequence.cpmg(256, 2.0, kappa=1.2),
                PulseSequence.custom([0.1, 0.35, 0.4, 0.9], 2.0, kappa=0.9)]:
        val, err = filter_weight_integral(seq)
        assert val == pytest.approx(seq.kappa**2 * seq.tau, rel=1e-8)


def test_sequence_at_rescales_switch_times():
    base = PulseSequence.custom([0.25, 0.5], 1.0, kappa=1.1)
    scaled = sequence_at(base, 4.0)
    np.testing.assert_allclose(scaled.switches(), [1.0, 2.0])
    assert scaled.tau == 4.0
    assert scaled.kappa == 1.1
    cp = sequence_at(PulseSequence.cpmg(4, 1.0), 2.0)
    assert cp.tau == 2.0 and cp.n_pulses == 4


def test_qubit_params_validation():
    with pytest.raises(ValueError):
        QubitParams(t1=0.0)
    with pytest.raises(ValueError):
        QubitParams(t1=-3.0)


def test_deterministic_reruns_bit_identical():
    m = ModelA(gamma0=1.0, J=1.0, xi=1.5, T=1.0)
    geom = GeometryConfig(d=1.0)
    seq = PulseSequence.hahn(2.0)
    a = phi_squared(2.0, seq, m, geom, tol_omega=1e-6)
    b = phi_squared(2.0, seq, m, geom, tol_omega=1e-6)
    assert a == b
