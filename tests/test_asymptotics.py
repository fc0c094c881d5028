"""Regime classification, crossover scales, and asymptotic-cell checks.

Cells carry unit prefactors, so against the engine we check stability of
the ratio deep inside each regime rather than absolute agreement.
"""
import math
import warnings

import numpy as np
import pytest

from critspec.asymptotics import (
    DYNAMIC,
    FAR_FIELD,
    NEAR_FIELD,
    STATIC,
    RegimeLabel,
    classify_regime,
    heuristic_phi_squared,
    omega0_for,
    table1_classical,
    table1_quantum,
)
from critspec.filters import GeometryConfig, PulseSequence
from critspec.models import (
    DiffusiveO3,
    ModelA,
    ModelB,
    O3Regime,
    TfimQC,
    o3_transport,
)
from critspec.noise import phi_squared


def quiet_classify(model, geom, tau):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return classify_regime(model, geom, tau)


class TestOmega0:
    def test_nonconserved_rate_at_probe_scale(self):
        m = ModelA(gamma0=0.7, J=1.3, xi=2.0, T=0.9)
        geom = GeometryConfig(d=3.0)
        expected = 0.7 * 1.3 * (1.0 / 2.0**2 + 1.0 / 3.0**2)
        assert omega0_for(m, geom) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_conserved_critical_rate(self):
        m = ModelB(sigma_s=0.4, J=2.0, xi=math.inf, T=1.1)
        geom = GeometryConfig(d=5.0)
        assert omega0_for(m, geom) == pytest.approx(0.4 * 2.0 / 5.0**4, rel=1e-12, abs=0)

    def test_conserved_finite_xi_rate(self):
        m = ModelB(sigma_s=0.4, J=2.0, xi=3.0, T=1.1)
        d = 7.0
        expected = 0.4 * 2.0 * (1 / d**2) * (1 / d**2 + 1 / 3.0**2)
        assert omega0_for(m, GeometryConfig(d=d)) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_diffusive_rate(self):
        m = DiffusiveO3(chi_u=0.3, D_s=1.7, T=0.8)
        assert omega0_for(m, GeometryConfig(d=4.0)) == pytest.approx(1.7 / 16.0, rel=1e-12, abs=0)

    def test_quantum_critical_rate(self):
        m = TfimQC(c=1.2, T=0.5, z=1.0, eta=0.04)
        d = 3.0
        xi = 1.2 / 0.5
        assert omega0_for(m, GeometryConfig(d=d)) == pytest.approx(
            0.5 * (1.0 + (xi / d) ** 2), rel=1e-12, abs=0)

    def test_min_depth_sets_the_scale(self):
        m = ModelA(gamma0=1.0, J=1.0, xi=1.0, T=1.0)
        single = omega0_for(m, GeometryConfig(d=3.0))
        stacked = omega0_for(m, GeometryConfig(d=3.0, layer_offsets=(0.0, 2.0)))
        assert stacked == single


class TestClassify:
    FAR = ModelA(gamma0=1.0, J=1.0, xi=0.1, T=1.0)
    CRIT = ModelA(gamma0=1.0, J=1.0, xi=math.inf, T=1.0)

    @pytest.mark.parametrize("model,d,tau,time_r,length_r", [
        (FAR, 10.0, 1e-4, STATIC, FAR_FIELD),
        (FAR, 10.0, 10.0, DYNAMIC, FAR_FIELD),
        (CRIT, 10.0, 0.1, STATIC, NEAR_FIELD),
        (CRIT, 1.0, 1e3, DYNAMIC, NEAR_FIELD),
    ])
    def test_quadrants(self, model, d, tau, time_r, length_r):
        lab = quiet_classify(model, GeometryConfig(d=d), tau)
        assert lab.time_regime == time_r
        assert lab.length_regime == length_r
        assert lab.omega0_tau == pytest.approx(
            omega0_for(model, GeometryConfig(d=d)) * tau)

    def test_margins_recorded(self):
        lab = quiet_classify(self.FAR, GeometryConfig(d=10.0), 1e-4)
        assert lab.d_over_xi == pytest.approx(100.0)
        lab_c = quiet_classify(self.CRIT, GeometryConfig(d=10.0), 0.1)
        assert lab_c.d_over_xi == 0.0

    def test_crossover_warns(self):
        m = ModelA(gamma0=1.0, J=1.0, xi=5.0, T=1.0)
        with pytest.warns(UserWarning):
            classify_regime(m, GeometryConfig(d=10.0), 1e-6)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            classify_regime(self.FAR, GeometryConfig(d=10.0), 0.0)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            RegimeLabel("sideways", FAR_FIELD, 1.0, 1.0)
        with pytest.raises(ValueError):
            RegimeLabel(STATIC, "nowhere", 1.0, 1.0)
        with pytest.raises(ValueError):
            RegimeLabel(STATIC, FAR_FIELD, 0.0, 1.0)
        with pytest.raises(ValueError):
            RegimeLabel(STATIC, FAR_FIELD, 1.0, -0.5)


class TestHeuristic:
    def test_formula(self):
        val = heuristic_phi_squared(2.0, 3.0, 5.0, 7.0, kappa=1.5)
        expected = 1.5**2 * (4.0 / 9.0) * min(1.0, 1.0 / 14.0) * min(1.0, 25.0 / 9.0)
        assert val == pytest.approx(expected, rel=1e-12, abs=0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            heuristic_phi_squared(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            heuristic_phi_squared(-1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("model,d,tau", [
        (TestClassify.FAR, 10.0, 1e-4),
        (TestClassify.FAR, 10.0, 10.0),
        (TestClassify.CRIT, 10.0, 0.1),
        (TestClassify.CRIT, 1.0, 1e3),
    ])
    def test_order_of_magnitude_per_quadrant(self, model, d, tau):
        # unit couplings so the heuristic's missing prefactors are O(1)
        geom = GeometryConfig(d=d)
        h = heuristic_phi_squared(tau, d, model.xi, omega0_for(model, geom))
        v = phi_squared(tau, PulseSequence.ramsey(tau), model, geom)
        assert 0.02 < h / v < 50.0


class TestTable1Classical:
    A = ModelA(gamma0=1.0, J=1.0, xi=0.1, T=1.0)
    A_CRIT = ModelA(gamma0=1.0, J=1.0, xi=math.inf, T=1.0)
    B = ModelB(sigma_s=1.0, J=1.0, xi=0.1, T=1.0)
    B_CRIT = ModelB(sigma_s=1.0, J=1.0, xi=math.inf, T=1.0)

    @staticmethod
    def label(time_r, length_r, w0t=1e3, dxi=0.0):
        return RegimeLabel(time_r, length_r, w0t, dxi)

    def test_static_cells_model_independent(self):
        lab = self.label(STATIC, NEAR_FIELD, w0t=1e-3)
        a = table1_classical(self.A_CRIT, lab, tau=0.5, d=3.0)
        b = table1_classical(self.B_CRIT, lab, tau=0.5, d=3.0)
        assert a == b == pytest.approx(1.0 * 0.25 / 9.0, rel=1e-12, abs=0)

        lab_f = self.label(STATIC, FAR_FIELD, w0t=1e-3, dxi=30.0)
        val = table1_classical(self.A, lab_f, tau=0.5, d=3.0)
        assert val == pytest.approx(0.25 * 0.01 / 81.0, rel=1e-12, abs=0)

    def test_dynamic_cells(self):
        tau, d = 100.0, 2.0
        lab_n = self.label(DYNAMIC, NEAR_FIELD)
        lab_f = self.label(DYNAMIC, FAR_FIELD, dxi=20.0)
        assert table1_classical(self.A_CRIT, lab_n, tau, d) == pytest.approx(
            tau * math.log(tau / d**2), rel=1e-12, abs=0)
        assert table1_classical(self.A, lab_f, tau, d) == pytest.approx(
            tau * 0.1**4 / d**4, rel=1e-12, abs=0)
        assert table1_classical(self.B_CRIT, lab_n, tau, d) == pytest.approx(
            tau**1.5, rel=1e-12, abs=0)
        assert table1_classical(self.B, lab_f, tau, d) == pytest.approx(
            tau * 0.1**4 / d**2, rel=1e-12, abs=0)

    def test_log_argument_guard(self):
        lab = self.label(DYNAMIC, NEAR_FIELD)
        with pytest.raises(ValueError):
            table1_classical(self.A_CRIT, lab, tau=1.0, d=10.0)

    def test_rejects_near_field_beyond_xi(self):
        lab = self.label(DYNAMIC, NEAR_FIELD, dxi=2.0)
        with pytest.raises(ValueError):
            table1_classical(self.A, lab, tau=100.0, d=2.0)

    def test_rejects_quantum_models(self):
        lab = self.label(DYNAMIC, NEAR_FIELD)
        with pytest.raises(TypeError):
            table1_classical(DiffusiveO3(chi_u=0.3, D_s=1.7, T=0.8),
                             lab, tau=1.0, d=1.0)

    def test_rejects_nonpositive_inputs(self):
        lab = self.label(DYNAMIC, NEAR_FIELD)
        with pytest.raises(ValueError):
            table1_classical(self.A_CRIT, lab, tau=0.0, d=1.0)

    @pytest.mark.parametrize("model,d,tau,scale", [
        (A, 10.0, 1e-4, 0.5),       # static far: ratio fixed as tau shrinks
        (A, 10.0, 20.0, 4.0),       # dynamic far: ratio fixed as tau grows
        (A_CRIT, 10.0, 0.1, 0.5),   # static near
        (B_CRIT, 1.0, 1e6, 4.0),    # dynamic near, conserved
    ])
    def test_cell_tracks_engine_scaling(self, model, d, tau, scale):
        geom = GeometryConfig(d=d)

        def ratio(t):
            lab = quiet_classify(model, geom, t)
            return table1_classical(model, lab, t, d) / phi_squared(
                t, PulseSequence.ramsey(t), model, geom)

        assert ratio(tau) == pytest.approx(ratio(scale * tau), rel=0.3)


class TestTable1Quantum:
    def test_quantum_critical_cell(self):
        m = TfimQC(c=2.0, T=0.3, z=1.0, eta=0.04)
        tau, d, T = 5.0, 1.5, 0.3
        arg = 2.0 / (d * T)
        expected = tau * T ** (2.04) / 2.0**4 * math.log(arg)
        assert table1_quantum(m, T, tau, d) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_quantum_critical_needs_thermal_window(self):
        m = TfimQC(c=1.0, T=0.5, z=1.0, eta=0.0)
        with pytest.raises(ValueError):
            table1_quantum(m, 0.5, tau=1.0, d=10.0)

    def test_o3_rows_share_transport_form(self):
        tau, d, T = 3.0, 2.0, 0.4
        for side, delta in [("critical", 0.0), ("ordered", 4.0), ("paramagnet", 4.0)]:
            reg = O3Regime(c=1.3, T=T, delta=delta, side=side)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                chi_u, d_s = o3_transport(reg)
                val = table1_quantum(reg, T, tau, d)
            assert val == pytest.approx(T * tau * chi_u / (d**2 * d_s), rel=1e-12, abs=0)

    def test_diffusive_row(self):
        m = DiffusiveO3(chi_u=0.3, D_s=1.7, T=0.8)
        assert table1_quantum(m, 0.8, tau=2.0, d=3.0) == pytest.approx(
            0.8 * 2.0 * 0.3 / (9.0 * 1.7), rel=1e-12, abs=0)

    def test_rejects_classical_models(self):
        with pytest.raises(TypeError):
            table1_quantum(ModelA(1.0, 1.0, 1.0, 1.0), 1.0, 1.0, 1.0)

    def test_rejects_nonpositive(self):
        m = DiffusiveO3(chi_u=0.3, D_s=1.7, T=0.8)
        with pytest.raises(ValueError):
            table1_quantum(m, 0.0, tau=1.0, d=1.0)


class TestTable1QuantumThroughTheEngine:
    """The diffusive rows are the engine's motional-narrowing limit, tau D_s/d^2
    large, up to the factor 1/(4 pi); criterion 09 checks only the table."""

    @staticmethod
    def engine(model, tau, d=1.0):
        return phi_squared(tau, PulseSequence.ramsey(tau), model, GeometryConfig(d=d))

    def test_o3_paramagnet_row_is_the_engine_times_4pi(self):
        # criterion 09's paramagnet at Delta/T = 45: D_s is so large that the
        # limit holds already at tau = 1
        m = O3Regime(c=1.0, T=1.0 / 45.0, delta=1.0, side="paramagnet")
        for tau in (1.0, 1e2, 1e4):
            ratio = 4.0 * math.pi * self.engine(m, tau) / table1_quantum(m, m.T, tau, 1.0)
            assert abs(ratio - 1.0) <= 1e-14

    def test_o3_critical_row_is_the_engine_limit(self):
        # at T = 1, tau D_s/d^2 = 0.88 tau: the ratio is 0.315, 0.935, 0.998
        m = O3Regime(c=1.0, T=1.0)
        misses = [abs(4.0 * math.pi * self.engine(m, tau) / table1_quantum(m, 1.0, tau, 1.0)
                      - 1.0) for tau in (1.0, 1e2, 1e4)]
        assert misses[0] > misses[1] > misses[2]
        assert misses[2] <= 2e-3

    def test_diffusive_row_is_the_engine_limit_in_tau_ds_over_d2(self):
        m = DiffusiveO3(chi_u=0.5, D_s=2.0, T=0.3)
        for d in (1.0, 3.0):
            misses = [abs(4.0 * math.pi * self.engine(m, tau, d)
                          / table1_quantum(m, m.T, tau, d) - 1.0)
                      for tau in (1.0, 1e2, 1e4, 1e5)]
            assert misses == sorted(misses, reverse=True)
            assert misses[-1] <= 1e-3

    def test_o3_critical_temperature_slope_where_narrowed(self):
        # criterion 09's T grid; the table's slope is 3 exactly, the engine's
        # is 2.64 at the criterion's tau = 1, so check every adjacent pair of
        # T where tau D_s/d^2 >= 100 (D_s falls as 1/T)
        Ts = np.geomspace(0.1, 1.0, 6)
        checked = 0
        for tau in (1.0, 10.0, 1e2, 1e3, 1e4):
            vals = [self.engine(O3Regime(c=1.0, T=T), tau) for T in Ts]
            slopes = np.diff(np.log(vals)) / np.diff(np.log(Ts))
            narrowed = [tau * o3_transport(O3Regime(c=1.0, T=T))[1] >= 100.0 for T in Ts[1:]]
            for slope in slopes[narrowed]:
                assert slope == pytest.approx(3.0, abs=0.1)
                checked += 1
        assert checked >= 12
