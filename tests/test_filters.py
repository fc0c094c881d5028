import math

import numpy as np
import pytest
from scipy.integrate import quad

from critspec.filters import (
    GeometryConfig,
    PulseSequence,
    comb_tail_bound,
    cpmg_delta_comb,
    filter_function,
    jump_weights,
    momentum_filter,
)


def brute_force_filter(omega, switch_times, tau, kappa=1.0):
    # |int_0^tau f(t) e^{i w t} dt|^2 kappa^2 by direct segment integration,
    # kept deliberately naive as the reference implementation
    re, im = 0.0, 0.0
    times = [0.0] + list(switch_times) + [tau]
    sign = 1.0
    for a, b in zip(times[:-1], times[1:]):
        if omega == 0.0:
            re += sign * (b - a)
        else:
            re += sign * (math.sin(omega * b) - math.sin(omega * a)) / omega
            im += sign * (math.cos(omega * a) - math.cos(omega * b)) / omega
        sign = -sign
    return kappa * kappa * (re * re + im * im)


def test_ramsey_filter_dc_value():
    seq = PulseSequence.ramsey(2.5, kappa=1.3)
    assert filter_function(0.0, seq) == pytest.approx(1.3**2 * 2.5**2, rel=1e-13, abs=0)


def test_ramsey_filter_matches_brute_force():
    seq = PulseSequence.ramsey(1.7)
    for w in [0.3, 1.0, 4.7, 33.0]:
        assert filter_function(w, seq) == pytest.approx(
            brute_force_filter(w, [], 1.7), rel=1e-12, abs=0)


def test_cpmg_matches_brute_force():
    tau = 2.2
    for n in [1, 2, 5, 8]:
        seq = PulseSequence.cpmg(n, tau)
        switches = [tau * (k - 0.5) / n for k in range(1, n + 1)]
        for w in [0.17, 1.0, 9.3, 61.0]:
            assert filter_function(w, seq) == pytest.approx(
                brute_force_filter(w, switches, tau), rel=1e-10)


def test_cpmg_equals_custom_with_same_switches():
    # the cpmg kind's switch times and the same times listed by hand
    tau, n = 3.0, 5
    seq_c = PulseSequence.cpmg(n, tau)
    seq_x = PulseSequence.custom([tau * (k - 0.5) / n for k in range(1, n + 1)], tau)
    w = np.geomspace(1e-3, 1e3, 200)
    np.testing.assert_allclose(filter_function(w, seq_c), filter_function(w, seq_x),
                               rtol=1e-9)


def _closed_form_with_pow(omega, n, tau, kappa):
    # the CPMG-N closed form, evaluated literally:
    # W = kappa^2 (16/omega^2) sin^4(omega tau/4N) P / cos^2(omega tau/2N),
    # P = cos^2(omega tau/2) for odd N and sin^2(omega tau/2) for even N
    x = omega * tau / (4.0 * n)
    par = np.cos(0.5 * omega * tau) if n % 2 else np.sin(0.5 * omega * tau)
    return (16.0 * kappa**2 / omega**2) * np.sin(x) ** 4 * par**2 / np.cos(2.0 * x) ** 2


def _cpmg_test_grids(n, tau):
    # both sides of the singular points (2m+1) pi N/tau at relative offsets
    # 1e-7..1e-2, and a dense grid out to 200 omega_p
    omega_p = math.pi * n / tau
    offsets = np.geomspace(1e-7, 1e-2, 11)
    offsets = np.concatenate((-offsets, offsets))
    m = np.arange(0, 200, 13)
    near = ((2 * m[:, None] + 1) * omega_p * (1.0 + offsets)).ravel()
    dense = np.linspace(0.0, 200.0 * omega_p, 3001)[1:]
    return near, dense


@pytest.mark.parametrize("n", [1, 2, 5, 32, 128, 256, 512])
def test_cpmg_matches_segment_sum_near_singular_points_and_far_out(n):
    # |W| <= kappa^2 (sum |J_k|)^2/omega^2 is the filter's scale at omega;
    # the closed form is 0/0 at the odd harmonics of pi N/tau, so points
    # with |cos(omega tau/2N)| <= 2e-4 are left out, and the segment sum
    # loses relative digits between the harmonics
    tau, kappa = 1.7, 1.2
    seq = PulseSequence.cpmg(n, tau, kappa)
    scale_num = kappa**2 * np.sum(np.abs(jump_weights(seq)[1])) ** 2
    for w in _cpmg_test_grids(n, tau):
        w = w[np.abs(np.cos(w * tau / (2.0 * n))) > 2e-4]
        got, want = filter_function(w, seq), _closed_form_with_pow(w, n, tau, kappa)
        envelope = scale_num / w**2
        assert np.max(np.abs(got - want) / envelope) <= 2e-9
        big = want >= 1e-6 * envelope
        assert np.max(np.abs(got[big] / want[big] - 1.0)) <= 2e-8


def test_cpmg_near_zero_frequency_is_finite_and_continuous():
    seq = PulseSequence.cpmg(4, 1.0)
    tiny = filter_function(np.array([0.0, 1e-200, 1e-30, 1e-8]), seq)
    assert np.all(np.isfinite(tiny))
    # even pulse count cancels the DC lobe
    assert tiny[0] == pytest.approx(0.0, abs=1e-20)
    odd = filter_function(np.array([0.0]), PulseSequence.cpmg(5, 1.0))
    assert odd[0] == pytest.approx(0.0, abs=1e-20)


def test_jump_weights_sum_to_zero():
    for seq in [PulseSequence.ramsey(1.0), PulseSequence.hahn(2.0),
                PulseSequence.cpmg(6, 3.0),
                PulseSequence.custom([0.2, 0.9], 1.5)]:
        times, jumps = jump_weights(seq)
        assert abs(sum(jumps)) < 1e-14
        assert times[0] == 0.0 and times[-1] == pytest.approx(seq.tau)
        assert np.all(np.diff(times) > 0)


def test_sequence_validation():
    with pytest.raises(ValueError):
        PulseSequence.custom([0.9, 0.2], 1.0)       # not increasing
    with pytest.raises(ValueError):
        PulseSequence.custom([0.0, 0.5], 1.0)       # touches boundary
    with pytest.raises(ValueError):
        PulseSequence.cpmg(0, 1.0)
    with pytest.raises(ValueError):
        PulseSequence.ramsey(-1.0)


def test_momentum_filter_total_weight():
    # int_0^inf q^3 e^{-2qd} dq = 3/(8 d^4)
    for d in [0.5, 1.0, 3.0]:
        geom = GeometryConfig(d=d)
        val, _ = quad(lambda q: momentum_filter(q, geom), 0.0, 60.0 / d)
        assert val == pytest.approx(3.0 / (8.0 * d**4), rel=1e-8)


def test_momentum_filter_peak_location():
    geom = GeometryConfig(d=2.0)
    q = np.linspace(0.01, 3.0, 20000)
    w = momentum_filter(q, geom)
    assert q[np.argmax(w)] == pytest.approx(3.0 / (2.0 * 2.0), rel=1e-3)


def test_layered_geometry_adds_filter_weights():
    stacked = GeometryConfig(d=1.0, layer_offsets=(0.0, 0.7))
    q = np.geomspace(0.1, 10.0, 30)
    expect = (momentum_filter(q, GeometryConfig(d=1.0))
              + momentum_filter(q, GeometryConfig(d=1.7)))
    np.testing.assert_allclose(momentum_filter(q, stacked), expect, rtol=1e-12)


def test_cpmg_delta_comb_weights():
    seq = PulseSequence.cpmg(8, 2.0)
    harmonics, weights = cpmg_delta_comb(seq, n_max=9)
    omega_p = math.pi * 8 / 2.0
    np.testing.assert_allclose(harmonics, omega_p * np.arange(1, 19, 2))
    assert np.all(weights > 0)
    # m^{-2} falloff of the odd-harmonic comb
    np.testing.assert_allclose(weights[1:] / weights[0],
                               1.0 / np.arange(3, 19, 2) ** 2, rtol=1e-12)


def test_comb_tail_bound_decreases():
    seq = PulseSequence.cpmg(4, 1.0)
    bounds = [comb_tail_bound(seq, n) for n in [2, 8, 32, 128]]
    assert all(b > 0 for b in bounds)
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
