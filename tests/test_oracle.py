"""Stochastic oracle vs the deterministic engine.

Every statistical assertion here runs from a frozen seed, so the suite is
deterministic.  Acceptance bands are sized from the estimator's own variance
(AR(1)-corrected where the samples are serially correlated), not eyeballed.
"""

import functools
import math
import warnings

import numpy as np
import pytest

from critspec.filters import GeometryConfig, PulseSequence
from critspec.models import ModelA, ModelB, lorentzian_parameters
from critspec.noise import noise_spectral_density, ou_phase_kernel, phi_squared
from critspec.oracle import (
    MODE_CAP,
    FieldTrace,
    LatticeSpec,
    monte_carlo_phi_squared,
    mode_sum_noise_density,
    mode_sum_phi_squared,
    simulate_field_trace,
    stationary_b_variance,
)

A_FAR = ModelA(gamma0=1.0, J=1.0, xi=1.0, T=1.0)
GEOM = GeometryConfig(d=1.0)
LAT = LatticeSpec(L=16)


@functools.lru_cache(maxsize=1)
def headline_traces():
    # shared between the Ramsey and Hahn comparisons; dt = tau/400 keeps the
    # per-step discretization bias far below the 400-trace statistical error
    return tuple(
        simulate_field_trace(A_FAR, GEOM, LAT, 2.0, 0.005, 20260816, trace_index=i)
        for i in range(400)
    )


class TestLatticeSpec:
    @pytest.mark.parametrize("bad_L", [3, 15, 2, 0, -8])
    def test_bad_side_rejected(self, bad_L):
        with pytest.raises(ValueError, match="even integer"):
            LatticeSpec(L=bad_L)

    @pytest.mark.parametrize("bad_a", [0.0, -1.0, math.inf, math.nan])
    def test_bad_spacing_rejected(self, bad_a):
        with pytest.raises(ValueError, match="positive"):
            LatticeSpec(L=16, a=bad_a)

    def test_mode_cap_guards_memory(self):
        assert 2050**2 > MODE_CAP
        with pytest.raises(ValueError, match="mode cap"):
            LatticeSpec(L=2050)

    def test_small_lattice_warns(self):
        with pytest.warns(UserWarning, match="finite-size"):
            LatticeSpec(L=8)

    def test_default_size_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            LatticeSpec(L=16)


class TestFieldTrace:
    def test_zero_temperature_trace_is_silent(self):
        cold = ModelA(gamma0=1.0, J=1.0, xi=1.0, T=0.0)
        tr = simulate_field_trace(cold, GEOM, LAT, 1.0, 0.01, 7)
        assert np.all(tr.samples == 0.0)

    def test_duration_property(self):
        tr = FieldTrace(dt=0.25, samples=np.zeros(5), seed=0)
        assert tr.duration == pytest.approx(1.0)

    def test_same_seed_reproduces_bitwise(self):
        a = simulate_field_trace(A_FAR, GEOM, LAT, 0.5, 0.01, 13, trace_index=2)
        b = simulate_field_trace(A_FAR, GEOM, LAT, 0.5, 0.01, 13, trace_index=2)
        assert np.array_equal(a.samples, b.samples)

    def test_trace_index_opens_a_new_stream(self):
        a = simulate_field_trace(A_FAR, GEOM, LAT, 0.5, 0.01, 13, trace_index=0)
        b = simulate_field_trace(A_FAR, GEOM, LAT, 0.5, 0.01, 13, trace_index=1)
        assert not np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        a = simulate_field_trace(A_FAR, GEOM, LAT, 0.5, 0.01, 13)
        b = simulate_field_trace(A_FAR, GEOM, LAT, 0.5, 0.01, 14)
        assert not np.array_equal(a.samples, b.samples)

    def test_provenance_records_the_run(self):
        tr = simulate_field_trace(A_FAR, GEOM, LAT, 0.5, 0.01, 13, trace_index=3)
        for key in ("L", "a", "trace_index", "n_modes"):
            assert key in tr.provenance
        assert tr.provenance["trace_index"] == 3

    @pytest.mark.parametrize("duration,dt", [(0.0, 0.01), (1.0, 0.0), (-1.0, 0.01)])
    def test_nonpositive_times_rejected(self, duration, dt):
        with pytest.raises(ValueError, match="positive"):
            simulate_field_trace(A_FAR, GEOM, LAT, duration, dt, 0)

    def test_initial_samples_are_stationary(self):
        vals = np.array([
            simulate_field_trace(A_FAR, GEOM, LAT, 0.01, 0.01, 999,
                                 trace_index=i).samples[0]
            for i in range(3000)
        ])
        truth = stationary_b_variance(A_FAR, GEOM, LAT)
        z = (vals.var(ddof=1) / truth - 1.0) / math.sqrt(2.0 / vals.size)
        assert abs(z) < 3.0


class TestMonteCarlo:
    # B = 1 on a binary grid (tau = 2, dt = 1/64), so every trapezoid sum
    # below is exact and the sign function is read off sample by sample
    UNIT_TRACE = FieldTrace(dt=1.0 / 64.0, samples=np.ones(129), seed=0)

    def test_constant_field_ramsey_is_exact(self):
        seq = PulseSequence.ramsey(2.0, kappa=0.5)
        mean, err = monte_carlo_phi_squared([self.UNIT_TRACE] * 2, seq)
        assert mean == (seq.kappa * seq.tau) ** 2
        assert err == 0.0

    def test_constant_field_hahn_cancels(self):
        # the flip sample weighs 0: signed +-1 it would leave phi = -+kappa dt
        mean, _ = monte_carlo_phi_squared([self.UNIT_TRACE] * 2,
                                          PulseSequence.hahn(2.0, kappa=0.5))
        assert mean == 0.0

    def test_constant_field_cpmg_signs_alternate(self):
        # +tau/4 - tau/2 + tau/4: a sign that failed to flip back leaves tau/2
        mean, _ = monte_carlo_phi_squared([self.UNIT_TRACE] * 2,
                                          PulseSequence.cpmg(2, 2.0, kappa=0.5))
        assert mean == 0.0

    @pytest.mark.parametrize("seq", [PulseSequence.ramsey(2.0), PulseSequence.hahn(2.0),
                                     PulseSequence.cpmg(8, 2.0), PulseSequence.cpmg(64, 2.0),
                                     PulseSequence.custom([0.25, 0.5, 1.75], 2.0)],
                             ids=lambda s: f"{s.kind}-{s.switches().size}")
    def test_toggling_sign_matches_a_flip_by_flip_loop(self, seq):
        # the sign takes only the values 0 and +-1, so phi must agree bit for bit
        dt = 2.0 / 1280.0
        tr = FieldTrace(dt=dt, samples=np.random.default_rng(5).normal(size=1281), seed=0)
        sgn = np.ones(1281)
        for j, ix in enumerate(np.rint(seq.switches() / dt).astype(int)):
            sgn[ix:] = 1.0 if j % 2 else -1.0
            sgn[ix] = 0.0
        w = np.full(1281, dt)
        w[0] = w[-1] = 0.5 * dt
        mean, _ = monte_carlo_phi_squared([tr], seq)
        assert mean == (seq.kappa * np.sum(w * sgn * tr.samples)) ** 2

    def test_no_traces_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            monte_carlo_phi_squared([], PulseSequence.ramsey(1.0))

    def test_tau_off_grid_rejected(self):
        tr = FieldTrace(dt=0.3, samples=np.zeros(12), seed=0)
        with pytest.raises(ValueError, match="integer number"):
            monte_carlo_phi_squared([tr], PulseSequence.ramsey(2.0))

    def test_short_trace_rejected(self):
        tr = FieldTrace(dt=0.05, samples=np.zeros(21), seed=0)
        with pytest.raises(ValueError, match="covers"):
            monte_carlo_phi_squared([tr], PulseSequence.ramsey(2.0))

    def test_coarse_sampling_rejected(self):
        # dt = tau/16 divides tau but cannot resolve even free precession
        tr = FieldTrace(dt=0.125, samples=np.zeros(17), seed=0)
        with pytest.raises(ValueError, match="too coarse"):
            monte_carlo_phi_squared([tr], PulseSequence.ramsey(2.0))

    def test_cpmg_needs_finer_sampling(self):
        # dt = tau/40 is fine for Ramsey but cannot resolve 4 pulses
        tr = FieldTrace(dt=0.05, samples=np.zeros(41), seed=0)
        monte_carlo_phi_squared([tr], PulseSequence.ramsey(2.0))
        with pytest.raises(ValueError, match="too coarse"):
            monte_carlo_phi_squared([tr], PulseSequence.cpmg(4, 2.0))
        # 19 on-grid flips of a custom sequence need dt <= tau/380, as CPMG-19 does
        flips = PulseSequence.custom(0.1 * np.arange(1, 20), 2.0)
        with pytest.raises(ValueError, match="tau/380"):
            monte_carlo_phi_squared([tr], flips)

    def test_switch_must_land_on_grid(self):
        # 27 steps of tau/27 put the Hahn flip at 13.5 steps
        tr = FieldTrace(dt=2.0 / 27.0, samples=np.zeros(28), seed=0)
        with pytest.raises(ValueError, match="grid"):
            monte_carlo_phi_squared([tr], PulseSequence.hahn(2.0))

    def test_ramsey_agrees_with_mode_sum(self):
        seq = PulseSequence.ramsey(2.0)
        mc, err = monte_carlo_phi_squared(headline_traces(), seq)
        truth = mode_sum_phi_squared(A_FAR, GEOM, LAT, seq)
        assert err > 0.0
        assert abs(mc - truth) < 3.0 * err

    def test_hahn_agrees_with_mode_sum(self):
        seq = PulseSequence.hahn(2.0)
        mc, err = monte_carlo_phi_squared(headline_traces(), seq)
        truth = mode_sum_phi_squared(A_FAR, GEOM, LAT, seq)
        assert abs(mc - truth) < 3.0 * err


def full_grid_sums(model, geom, lattice, seq, omegas):
    """<B^2>, <phi^2> and N(omega) as plain sums over every q != 0 mode."""
    L, a = lattice.L, lattice.a
    n = np.arange(L) - L // 2
    nx, ny = np.meshgrid(n, n, indexing="ij")
    q = 2.0 * math.pi * np.hypot(nx, ny).ravel() / (L * a)
    q = q[q > 0.0]
    h2 = sum((q * np.exp(-q * d) / (2.0 * a**2)) ** 2 for d in geom.depths)
    chi, r = lorentzian_parameters(model, q)
    g = (2.0 * a * geom.field_prefactor / L) ** 2 * h2 * model.T * chi
    phi2 = seq.kappa**2 * np.sum(g * ou_phase_kernel(r, seq)[:, 0])
    density = [np.sum(2.0 * g * r / (r**2 + w**2)) for w in omegas]
    return np.sum(g), phi2, density


class TestShellTable:
    GEOM2 = GeometryConfig(d=1.0, layer_offsets=(0.0, 1.5), field_prefactor=0.7)
    MODELS = [ModelA(gamma0=1.0, J=1.0, xi=2.0, T=1.3),
              ModelA(gamma0=1.0, J=1.0, xi=math.inf, T=1.0),
              ModelB(J=1.0, sigma_s=1.0, xi=2.0, T=1.0)]

    @pytest.mark.parametrize("L", [16, 64])
    @pytest.mark.parametrize("model", MODELS, ids=["a-far", "a-crit", "b-far"])
    def test_shell_sums_equal_full_grid_sums(self, L, model):
        lat = LatticeSpec(L=L, a=1.3)
        seq = PulseSequence.hahn(3.0)
        omegas = np.array([0.0, 0.4, 5.0])
        b2, phi2, density = full_grid_sums(model, self.GEOM2, lat, seq, omegas)
        assert stationary_b_variance(model, self.GEOM2, lat) == pytest.approx(b2, rel=1e-12, abs=0)
        assert mode_sum_phi_squared(model, self.GEOM2, lat, seq) == pytest.approx(
            phi2, rel=1e-12, abs=0)
        np.testing.assert_allclose(mode_sum_noise_density(model, self.GEOM2, lat, omegas),
                                   density, rtol=1e-12)

    def test_l64_simulates_456_shells(self):
        tr = simulate_field_trace(A_FAR, GEOM, LatticeSpec(L=64), 0.01, 0.01, 0)
        assert tr.provenance["n_shells"] == 456
        assert tr.provenance["n_modes"] == 64**2 - 1


class TestModeSums:
    def test_noise_density_approaches_continuum(self):
        lat = LatticeSpec(L=64)
        geom = GeometryConfig(d=2.0)
        omegas = np.array([0.0, 0.5, 2.0, 10.0])
        discrete = mode_sum_noise_density(A_FAR, geom, lat, omegas)
        for w, ms in zip(omegas, discrete):
            assert ms == pytest.approx(noise_spectral_density(w, A_FAR, geom), rel=0.01)

    def test_phi_squared_approaches_continuum(self):
        lat = LatticeSpec(L=64)
        geom = GeometryConfig(d=2.0)
        seq = PulseSequence.ramsey(2.0)
        ms = mode_sum_phi_squared(A_FAR, geom, lat, seq)
        assert ms == pytest.approx(phi_squared(2.0, seq, model=A_FAR, geom=geom),
                                   rel=1e-3)

    def test_periodogram_matches_noise_density(self):
        # averaged periodogram of simulated traces against the discrete-sum
        # N(omega); bins restricted to n/8 so Lorentzian aliasing stays well
        # under the 4 sigma statistical band
        n, dt, n_traces = 512, 0.05, 300
        acc = np.zeros(n // 2)
        for i in range(n_traces):
            tr = simulate_field_trace(A_FAR, GEOM, LAT, (n - 1) * dt, dt, 777,
                                      trace_index=i)
            spec = np.abs(np.fft.rfft(tr.samples[:n])) ** 2 * dt / n
            acc += spec[: n // 2]
        acc /= n_traces
        omegas = 2.0 * np.pi * np.arange(n // 2) / (n * dt)
        model = mode_sum_noise_density(A_FAR, GEOM, LAT, omegas)
        ratio = acc[1 : n // 8] / model[1 : n // 8]
        band = 4.0 / math.sqrt(n_traces)
        frac = float(np.mean(np.abs(ratio - 1.0) <= band))
        assert frac >= 0.90
