import math

import pytest

from critspec.materials import (
    CRI3,
    EV,
    HBAR,
    K_B,
    MU_0,
    MU_B,
    MaterialParams,
    cri3_t2_estimate,
    field_prefactor_si,
)


def test_codata_constants():
    assert MU_B == pytest.approx(9.2740100783e-24, rel=1e-12, abs=0)
    assert HBAR == pytest.approx(1.054571817e-34, rel=1e-12, abs=0)
    assert K_B == 1.380649e-23
    assert EV == 1.602176634e-19
    assert MU_0 == pytest.approx(1.25663706212e-6, rel=1e-12, abs=0)


def test_field_prefactor_hand_formula():
    mat = MaterialParams(J=1.0 * EV, a=1e-9, S=1.0)
    d = 5e-9
    expect = (2.0 * MU_B * MU_0 * 1.0) ** 2 / (16.0 * math.pi * (1e-9) ** 4 * d**2)
    assert field_prefactor_si(mat, d) == pytest.approx(expect, rel=1e-12, abs=0)
    # distance scaling carried entirely by 1/d^2
    assert field_prefactor_si(mat, 2 * d) == pytest.approx(expect / 4.0, rel=1e-12, abs=0)


def test_cri3_headline_estimate():
    # rate = 2 (g_sigma mu_B/(2 hbar))^2 * prefactor * hbar k_B T xi^4/(J^2 a^4)
    mat = CRI3
    t2 = cri3_t2_estimate(mat, 60.0, 10e-9, 2 * 0.687e-9)
    gamma = 2.0 * MU_B
    pref = field_prefactor_si(mat, 10e-9)
    rate = (2.0 * (gamma / (2.0 * HBAR)) ** 2 * pref * HBAR * K_B * 60.0
            * (2 * 0.687e-9) ** 4 / ((2.2e-3 * EV) ** 2 * (0.687e-9) ** 4))
    assert t2 == pytest.approx(1.0 / rate, rel=1e-12, abs=0)
    assert 4e-6 < t2 < 6e-6


def test_t2_scaling_in_xi_and_d():
    base = cri3_t2_estimate(CRI3, 60.0, 10e-9, 1e-9)
    assert cri3_t2_estimate(CRI3, 60.0, 10e-9, 2e-9) == pytest.approx(
        base / 16.0, rel=1e-12, abs=0)
    assert cri3_t2_estimate(CRI3, 60.0, 20e-9, 1e-9) == pytest.approx(
        base * 4.0, rel=1e-12, abs=0)


def test_material_validation():
    with pytest.raises(ValueError):
        MaterialParams(J=-1.0, a=1e-9, S=1.0)
    with pytest.raises(ValueError):
        MaterialParams(J=1.0, a=0.0, S=1.0)
    with pytest.raises(ValueError):
        MaterialParams(J=1.0, a=1e-9, S=1.0, g_s=math.inf)
