import math

import numpy as np
import pytest
from scipy.integrate import quad

from critspec.filters import GeometryConfig, PulseSequence
from critspec.models import ModelA, ModelB, O3Regime, o3_transport, structure_factor
from critspec.noise import (
    NoCrossingError,
    QubitParams,
    coherence,
    cpmg_closed_form,
    decoherence_curve,
    filter_weight_integral,
    noise_spectral_density,
    ou_phase_kernel,
    phi_squared,
    sample_noise_spectrum,
    sequence_at,
    t2_extract,
)
from critspec.quadrature import QuadratureError

from conftest import make_sequence, radial_phi_squared, sequence_double_integral


def quad_noise_density(model, d, omega):
    # independent reference: direct q-quadrature of the filtered structure
    # factor, no shared code with the production integrator
    def f(q):
        return (q**3 * math.exp(-2.0 * q * d)
                * structure_factor(model, q, omega) / (2.0 * math.pi))

    val, _ = quad(f, 0.0, 40.0 / d, limit=300,
                  points=[0.5 / d, 1.5 / d, 3.0 / d])
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


def test_zero_temperature_noise_vanishes():
    m = ModelA(gamma0=1.0, J=1.0, xi=1.0, T=0.0)
    assert noise_spectral_density(0.7, m, GeometryConfig(d=1.0)) == 0.0


def test_critical_dc_noise_diverges():
    geom = GeometryConfig(d=1.0)
    a = ModelA(gamma0=1.0, J=1.0, xi=math.inf, T=1.0)
    b = ModelB(sigma_s=1.0, J=1.0, xi=math.inf, T=1.0)
    assert math.isinf(noise_spectral_density(0.0, a, geom))
    assert math.isinf(noise_spectral_density(0.0, b, geom))


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


def test_t2_extraction_brackets_crossing():
    # synthetic curve phi^2 = (tau/3)^2 crosses 2 phi^2 = 1 at tau = 3/sqrt2
    taus = np.geomspace(0.3, 30.0, 25)
    from critspec.noise import DecoherenceCurve
    curve = DecoherenceCurve(taus=taus, phi_sq=(taus / 3.0) ** 2,
                             errors=np.zeros_like(taus), seq="ramsey",
                             model=None, geom=None, provenance={})
    t2 = t2_extract(curve)
    assert t2 == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-6)


def test_t2_no_crossing_error_carries_bracket():
    taus = np.geomspace(0.1, 1.0, 8)
    from critspec.noise import DecoherenceCurve
    curve = DecoherenceCurve(taus=taus, phi_sq=1e-6 * taus,
                             errors=np.zeros_like(taus), seq="ramsey",
                             model=None, geom=None, provenance={})
    with pytest.raises(NoCrossingError) as exc:
        t2_extract(curve)
    assert exc.value.bracket is not None


def test_coherence_overlay_factorizes():
    q_inf = QubitParams(t1=math.inf)
    q_fin = QubitParams(t1=2.5)
    phi2 = 0.42
    assert coherence(1.3, q_inf, phi2) == pytest.approx(math.exp(-2 * 0.42))
    assert coherence(1.3, q_fin, phi2) == pytest.approx(
        math.exp(-2 * 0.42) * math.exp(-1.3 / 2.5), rel=1e-15)


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
    for seq in [PulseSequence.ramsey(2.0), PulseSequence.cpmg(2, 2.0)]:
        val, err = filter_weight_integral(seq)
        assert val == pytest.approx(seq.kappa**2 * 2.0, rel=1e-8)


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


def test_sample_noise_spectrum_record():
    m = ModelA(gamma0=1.0, J=1.0, xi=1.0, T=1.0)
    spec = sample_noise_spectrum(m, GeometryConfig(d=1.0),
                                 np.geomspace(0.1, 10.0, 7))
    assert np.all(spec.densities >= 0.0)
    assert spec.omegas.shape == spec.densities.shape == spec.errors.shape
    assert spec.provenance
