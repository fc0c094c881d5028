import math
import warnings

import numpy as np
import pytest

from critspec.models import (
    CLASSICAL,
    QUANTUM,
    DiffusiveO3,
    ModelA,
    ModelB,
    O3Regime,
    TfimQC,
    as_lorentzian_model,
    chi,
    fdt_convert,
    is_critical_ab,
    lorentzian_coupling,
    lorentzian_parameters,
    o3_transport,
    resonance_q,
    structure_factor,
)

ALL_MODELS = [
    ModelA(gamma0=0.7, J=1.3, xi=2.0, T=0.9),
    ModelB(sigma_s=0.4, J=2.0, xi=5.0, T=1.1),
    DiffusiveO3(chi_u=0.3, D_s=1.7, T=0.8),
    TfimQC(c=1.2, T=0.5, z=1.0, eta=0.04),
]


def test_model_a_static_susceptibility():
    m = ModelA(gamma0=1.0, J=2.0, xi=4.0, T=1.0)
    for q in [0.0, 0.3, 2.0]:
        expect = 1.0 / (2.0 * (q * q + 1.0 / 16.0))
        assert chi(m, q, 0.0).real == pytest.approx(expect, rel=1e-13, abs=0)
        assert chi(m, q, 0.0).imag == 0.0


def test_critical_static_divergence_is_inf():
    m = ModelA(gamma0=1.0, J=1.0, xi=math.inf, T=1.0)
    assert math.isinf(chi(m, 0.0, 0.0).real)


def test_lorentzian_reduction_consistent():
    # S must equal 2 T (chi r)/(r^2 + w^2) with the same (chi, r) every
    # model reports; coupling = chi*r without the q->0 indeterminacy
    rng = np.random.default_rng(3)
    for m in ALL_MODELS:
        q = rng.uniform(0.05, 3.0, 8)
        w = rng.uniform(0.01, 5.0, 8)
        chi_q, r_q = lorentzian_parameters(m, q)
        mm = as_lorentzian_model(m)
        np.testing.assert_allclose(lorentzian_coupling(m, q), chi_q * r_q,
                                   rtol=1e-12)
        expect = 2.0 * mm.T * chi_q * r_q / (r_q**2 + w**2)
        np.testing.assert_allclose(structure_factor(m, q, w), expect, rtol=1e-13)


def test_fdt_links_chi_and_structure_factor():
    rng = np.random.default_rng(11)
    for m in ALL_MODELS:
        mm = as_lorentzian_model(m)
        q = rng.uniform(0.05, 3.0, 6)
        w = rng.uniform(0.02, 4.0, 6)
        im = chi(m, q, w).imag
        np.testing.assert_allclose(fdt_convert(im, w, mm.T, CLASSICAL),
                                   structure_factor(m, q, w),
                                   rtol=1e-12)


def test_passivity_every_model():
    rng = np.random.default_rng(5)
    q = rng.uniform(0.01, 4.0, 40)
    w = rng.uniform(-6.0, 6.0, 40)
    for m in ALL_MODELS:
        assert np.all(chi(m, q, w).imag * w >= -1e-16)


def test_structure_factor_even_and_nonnegative():
    q = np.geomspace(0.05, 4.0, 12)
    for m in ALL_MODELS:
        for w in [0.0, 0.4, 2.7]:
            s_plus = structure_factor(m, q, w)
            s_minus = structure_factor(m, q, -w)
            np.testing.assert_allclose(s_plus, s_minus, rtol=1e-14)
            assert np.all(s_plus >= 0.0)


def test_fdt_quantum_reduces_to_classical_at_high_t():
    w, t = 0.01, 100.0
    im = 0.37
    assert fdt_convert(im, w, t, QUANTUM) == pytest.approx(
        fdt_convert(im, w, t, CLASSICAL), rel=1e-4)


def test_fdt_rejects_zero_frequency():
    with pytest.raises(ValueError):
        fdt_convert(0.1, 0.0, 1.0, CLASSICAL)


def test_model_b_conserved_rate_vanishes_at_zero_q():
    m = ModelB(sigma_s=1.0, J=1.0, xi=2.0, T=1.0)
    _, r = lorentzian_parameters(m, np.array([0.0, 1e-4, 1e-2]))
    assert r[0] == 0.0
    # conserved dynamics: rate ~ q^2 at small q
    assert r[2] / r[1] == pytest.approx(1e4, rel=1e-3)


def test_tfim_postulates():
    m = TfimQC(c=2.0, T=0.25, z=1.0, eta=0.0)
    assert m.xi == pytest.approx(2.0 / 0.25)
    assert m.gamma_rate == pytest.approx(0.25)
    assert m.chi00 == pytest.approx(0.25 ** (-2.0))
    q = np.array([0.1, 1.0, 3.0])
    _, r = lorentzian_parameters(m, q)
    np.testing.assert_allclose(r, 0.25 * (1.0 + (q * m.xi) ** 2), rtol=1e-13)


def test_o3_critical_transport_value():
    # Phi_u = (sqrt5/pi) ln((sqrt5+1)/2) evaluated independently
    expect = (math.sqrt(5.0) / math.pi) * math.log((math.sqrt(5.0) + 1.0) / 2.0)
    chi_u, d_s = o3_transport(O3Regime(c=1.0, T=1.0, side="critical"))
    assert chi_u == pytest.approx(expect, rel=1e-15, abs=0)
    assert chi_u == pytest.approx(0.3425085, rel=1e-6)
    assert chi_u * d_s == pytest.approx(0.3, rel=1e-15, abs=0)


def test_o3_transport_scaling_in_temperature():
    a = o3_transport(O3Regime(c=1.5, T=0.2, side="critical"))
    b = o3_transport(O3Regime(c=1.5, T=0.4, side="critical"))
    assert b[0] / a[0] == pytest.approx(2.0, rel=1e-13, abs=0)
    assert b[1] / a[1] == pytest.approx(0.5, rel=1e-13, abs=0)


def test_o3_gapped_sides_exponential():
    p1 = o3_transport(O3Regime(c=1.0, T=0.02, delta=1.0, side="paramagnet"))
    p2 = o3_transport(O3Regime(c=1.0, T=0.025, delta=1.0, side="paramagnet"))
    assert math.log(p2[0] / p1[0]) == pytest.approx(1.0 / 0.02 - 1.0 / 0.025,
                                                    rel=1e-2)
    o1 = o3_transport(O3Regime(c=1.0, T=0.05, delta=1.0, side="ordered"))
    assert o1[1] > 1e20   # e^{2 pi/0.05} dominated


def test_o3_out_of_window_warns():
    with pytest.warns(UserWarning):
        o3_transport(O3Regime(c=1.0, T=2.0, delta=1.0, side="paramagnet"))


def test_o3_regime_resolves_to_diffusive():
    reg = O3Regime(c=1.0, T=0.3, side="critical")
    m = as_lorentzian_model(reg)
    assert isinstance(m, DiffusiveO3)
    chi_u, d_s = o3_transport(reg)
    assert m.chi_u == pytest.approx(chi_u)
    assert m.D_s == pytest.approx(d_s)


def test_validation_rejects_nonpositive_scales():
    with pytest.raises(ValueError):
        ModelA(gamma0=-1.0, J=1.0, xi=1.0, T=1.0)
    with pytest.raises(ValueError):
        ModelB(sigma_s=1.0, J=0.0, xi=1.0, T=1.0)
    with pytest.raises(ValueError):
        DiffusiveO3(chi_u=1.0, D_s=1.0, T=-2.0)
    with pytest.raises(ValueError):
        O3Regime(c=1.0, T=1.0, side="weird")
    with pytest.raises(ValueError):
        O3Regime(c=1.0, T=1.0, delta=0.0, side="paramagnet")


def test_o3_critical_side_rejects_a_gap():
    # nothing reads delta at criticality, so a nonzero value would be ignored
    assert O3Regime(c=1.0, T=1.0, delta=0.0, side="critical").delta == 0.0
    with pytest.raises(ValueError, match="critical"):
        O3Regime(c=1.0, T=1.0, delta=0.5, side="critical")


@pytest.mark.parametrize("m", ALL_MODELS + [ModelA(gamma0=1.0, J=1.0, xi=math.inf, T=1.0),
                                            ModelB(sigma_s=1.0, J=1.0, xi=math.inf, T=1.0),
                                            O3Regime(c=1.0, T=0.3, side="critical")])
def test_resonance_q_inverts_the_mode_rate(m):
    _, r0 = lorentzian_parameters(m, 0.0)
    for omega in (1.5 * r0 + 0.3, 7.0 * r0 + 2.0):
        q = resonance_q(m, omega)
        assert lorentzian_parameters(m, q)[1] == pytest.approx(omega, rel=1e-12, abs=0)
    # below the q = 0 rate nothing resonates; Model A/B and TFIM have a gap there
    assert resonance_q(m, 0.0) is None
    if r0 > 0.0:
        assert resonance_q(m, 0.5 * r0) is None


def test_resonance_and_criticality_dispatch_on_the_resolved_models():
    reg = O3Regime(c=1.0, T=0.3, side="critical")
    for w in (0.5, 1.0, 7.0):
        assert resonance_q(reg, w) == resonance_q(reg.to_diffusive(), w)
    assert is_critical_ab(ModelA(gamma0=1.0, J=1.0, xi=math.inf, T=1.0))
    assert is_critical_ab(ModelB(sigma_s=1.0, J=1.0, xi=math.inf, T=1.0))
    assert not any(is_critical_ab(m) for m in ALL_MODELS)


def test_xi_infinite_is_admitted():
    m = ModelA(gamma0=1.0, J=1.0, xi=math.inf, T=1.0)
    chi_q, r_q = lorentzian_parameters(m, 0.5)
    assert chi_q == pytest.approx(1.0 / 0.25, rel=1e-14, abs=0)
    assert r_q == pytest.approx(0.25, rel=1e-14, abs=0)
