"""End-to-end checks of the command-line front end.

Commands run in-process through main() with configs written to tmp_path,
so exit codes, stderr diagnostics, and output files are all observable.
"""

import json
import math
import os

import numpy as np
import pytest

from critspec.cli import ConfigError, _fmt, main, read_sweep_csv
from critspec.asymptotics import omega0_for
from critspec.filters import GeometryConfig, PulseSequence
from critspec.models import ModelA
from critspec.noise import cpmg_closed_form, noise_spectral_density, phi_squared
from critspec.quadrature import QuadratureError


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def body(path):
    """Data lines: column header plus rows, comments stripped."""
    with open(path) as fh:
        return [l for l in fh.read().splitlines() if l and not l.startswith("#")]


def sans_stamp(path):
    with open(path) as fh:
        return [l for l in fh.read().splitlines() if not l.startswith("# generated")]


def report_value(path, key):
    for line in open(path):
        if line.startswith(f"{key} ="):
            return line.split("=", 1)[1].strip()
    raise KeyError(key)


def load_rows(path):
    lines = body(path)
    cols = lines[0].split(",")
    data = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    return cols, data


A_FAR_BLOCK = {"kind": "model_a", "xi": 1.0, "T": 1.0}
SWEEP_CFG = {"model": A_FAR_BLOCK,
             "geometry": {"d": 1.0},
             "sweep": {"d": {"values": [1.0, 2.0]},
                       "tau": {"log_range": [1.0, 10.0, 3]},
                       "T": {"values": [0.5, 1.0]}}}


class TestConfigValidation:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["spectrum", "--config", str(p)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exits_4(self, tmp_path, capsys):
        assert main(["spectrum", "--config", str(tmp_path / "absent.json")]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_unknown_model_kind_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"model": {"kind": "ising_9000"},
                                   "omega": {"values": [1.0]}})
        assert main(["spectrum", "--config", cfg]) == 2
        assert "model" in capsys.readouterr().err

    def test_ambiguous_axis_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                                   "omega": {"values": [1.0],
                                             "range": [0.0, 1.0, 2]}})
        assert main(["spectrum", "--config", cfg]) == 2

    def test_empty_axis_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                                   "omega": {"values": []}})
        assert main(["spectrum", "--config", cfg]) == 2

    def test_negative_tolerance_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                                   "omega": {"values": [1.0]},
                                   "tolerances": {"tol_q": -1.0}})
        assert main(["spectrum", "--config", cfg]) == 2

    def test_unknown_top_level_key_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "frobnicate": 1,
                                   "omega": {"values": [1.0]}})
        assert main(["spectrum", "--config", cfg]) == 2

    def test_bad_thread_env_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CRITSPEC_THREADS", "many")
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        out = str(tmp_path / "s.csv")
        assert main(["sweep", "--config", cfg, "--out", out]) == 2
        assert "CRITSPEC_THREADS" in capsys.readouterr().err

    def test_thread_env_fallback_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CRITSPEC_THREADS", "1")
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        out = str(tmp_path / "s.csv")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0

    def test_unphysical_regime_exits_2(self, tmp_path, capsys):
        # the gapped-paramagnet transport coefficients only exist for
        # temperatures well inside the gap; delta = T is rejected downstream
        cfg = write_cfg(tmp_path, {
            "model": {"kind": "o3", "c": 1.0, "side": "paramagnet"},
            "geometry": {"d": 1.0},
            "sweep": {"d": {"values": [1.0]}, "tau": {"values": [0.5]},
                      "T": {"values": [1.0]}, "lambda": {"values": [1.0]}}})
        out = str(tmp_path / "s.csv")
        with pytest.warns(UserWarning):
            assert main(["sweep", "--config", cfg, "--out", out]) == 2
        assert "config error" in capsys.readouterr().err


class TestSpectrum:
    def test_critical_conserved_density_low_frequency_slope(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": {"kind": "model_b", "xi": None, "T": 1.0},
            "geometry": {"d": 1.0},
            "omega": {"log_range": [1e-10, 1e-8, 5]}})
        out = str(tmp_path / "spec.csv")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
        cols, data = load_rows(out)
        assert cols == ["omega", "noise_density", "err_estimate"]
        slope = np.polyfit(np.log(data[:, 0]), np.log(data[:, 1]), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.02)

    def test_zero_temperature_spectrum_is_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": {"kind": "model_a", "xi": 1.0, "T": 0.0},
            "geometry": {"d": 1.0},
            "omega": {"values": [0.1, 1.0, 10.0]}})
        out = str(tmp_path / "spec.csv")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
        _, data = load_rows(out)
        assert np.all(data[:, 1] == 0.0)

    def test_rerun_is_byte_identical_modulo_timestamp(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                                   "omega": {"log_range": [0.1, 10.0, 4]}})
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["spectrum", "--config", cfg, "--out", out1]) == 0
        assert main(["spectrum", "--config", cfg, "--out", out2]) == 0
        assert sans_stamp(out1) == sans_stamp(out2)
        assert any(l.startswith("# generated:") for l in open(out1))

    def test_provenance_header_records_the_run(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                                   "omega": {"values": [1.0]}})
        out = str(tmp_path / "spec.csv")
        assert main(["spectrum", "--config", cfg, "--seed", "7", "--out", out]) == 0
        header = [l for l in open(out) if l.startswith("#")]
        joined = "".join(header)
        for tag in ("# command: spectrum", "# config:", "# critspec_version:",
                    "# seed: 7"):
            assert tag in joined

    def test_missing_omega_axis_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0}})
        assert main(["spectrum", "--config", cfg]) == 2

    def test_unwritable_path_exits_4(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                                   "omega": {"values": [1.0]}})
        out = str(tmp_path / "no_such_dir" / "spec.csv")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_quadrature_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def blow_up(*a, **k):
            raise QuadratureError("panel cap reached")
        monkeypatch.setattr("critspec.cli.noise_spectral_density", blow_up)
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                                   "omega": {"values": [1.0]}})
        out = str(tmp_path / "spec.csv")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 3
        assert "numeric error" in capsys.readouterr().err


class TestDecohere:
    def test_coherence_monotone_and_crossing_flagged(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": {"kind": "model_a", "xi": None, "T": 1.0},
            "geometry": {"d": 1.0},
            "taus": {"log_range": [0.05, 50.0, 9]}})
        out = str(tmp_path / "dec.csv")
        assert main(["decohere", "--config", cfg, "--out", out]) == 0
        cols, data = load_rows(out)
        assert cols == ["tau", "phi_sq", "coherence", "err", "t2_crossing"]
        assert np.all(np.diff(data[:, 2]) < 0.0)
        assert data[:, 4].sum() == 1.0
        assert data[np.argmax(data[:, 4]), 1] >= 0.5
        assert any(l.startswith("# t2_estimate:") for l in open(out))

    def test_t1_overlay_column_when_finite(self, tmp_path):
        base = {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                "taus": {"values": [0.1, 1.0]}}
        cfg = write_cfg(tmp_path, {**base, "qubit": {"t1": 5.0}}, "with_t1.json")
        out = str(tmp_path / "t1.csv")
        assert main(["decohere", "--config", cfg, "--out", out]) == 0
        cols, data = load_rows(out)
        assert "coherence_t1" in cols
        i_coh, i_t1 = cols.index("coherence"), cols.index("coherence_t1")
        # the relaxation envelope can only lower the coherence
        assert np.all(data[:, i_t1] < data[:, i_coh])
        cfg2 = write_cfg(tmp_path, base, "without_t1.json")
        out2 = str(tmp_path / "not1.csv")
        assert main(["decohere", "--config", cfg2, "--out", out2]) == 0
        assert "coherence_t1" not in load_rows(out2)[0]

    def test_qubit_kappa_sets_the_coupling(self, tmp_path):
        # phi scales with kappa, so kappa = 2 in the qubit block alone
        # must quadruple <phi^2>
        base = {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                "taus": {"values": [0.3, 1.0]}}
        outs = []
        for name, extra in (("unit", {}), ("qubit", {"qubit": {"kappa": 2.0}})):
            cfg = write_cfg(tmp_path, {**base, **extra}, f"{name}.json")
            outs.append(str(tmp_path / f"{name}.csv"))
            assert main(["decohere", "--config", cfg, "--out", outs[-1]]) == 0
        (cols, unit), (_, scaled) = load_rows(outs[0]), load_rows(outs[1])
        i = cols.index("phi_sq")
        np.testing.assert_allclose(scaled[:, i], 4.0 * unit[:, i], rtol=1e-12)

    def test_conflicting_kappa_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                                   "taus": {"values": [1.0]},
                                   "sequence": {"kind": "ramsey", "kappa": 1.0},
                                   "qubit": {"kappa": 2.0}})
        assert main(["decohere", "--config", cfg,
                     "--out", str(tmp_path / "k.csv")]) == 2
        assert "kappa" in capsys.readouterr().err

    def test_long_curve_matches_single_tau_values(self, tmp_path):
        # a 1000-point curve runs in bounded blocks of taus; every row must
        # agree with phi_squared at that tau within the two error estimates
        model = ModelA(gamma0=1.0, J=1.0, xi=10.0, T=1.0)
        geom = GeometryConfig(d=1.0)
        seq = PulseSequence.cpmg(8, 1.0)
        cfg = write_cfg(tmp_path, {
            "model": {"kind": "model_a", "xi": 10.0, "T": 1.0},
            "geometry": {"d": 1.0},
            "sequence": {"kind": "cpmg", "n_pulses": 8},
            "taus": {"log_range": [0.01, 100.0, 1000]}})
        out = str(tmp_path / "long.csv")
        assert main(["decohere", "--config", cfg, "--out", out]) == 0
        cols, data = load_rows(out)
        assert data.shape[0] == 1000
        i_phi, i_err = cols.index("phi_sq"), cols.index("err")
        for tau, phi, err in zip(data[:, 0], data[:, i_phi], data[:, i_err]):
            ref, ref_err, _ = phi_squared(tau, seq, model, geom, full_output=True)
            assert abs(phi - ref) <= err + ref_err

    def test_cpmg_32_tracks_closed_form(self, tmp_path):
        # narrowband far-field configuration, where the spectrum seen by the
        # filter is a single Lorentzian and the large-N closed form applies
        model = ModelA(gamma0=1.0, J=1.0, xi=0.05, T=1.0)
        geom = GeometryConfig(d=1.0)
        taus = [0.5, 1.0, 4.0]
        cfg = write_cfg(tmp_path, {
            "model": {"kind": "model_a", "xi": 0.05, "T": 1.0},
            "geometry": {"d": 1.0},
            "sequence": {"kind": "cpmg", "n_pulses": 32},
            "taus": {"values": taus}})
        out = str(tmp_path / "cpmg.csv")
        assert main(["decohere", "--config", cfg, "--out", out]) == 0
        _, data = load_rows(out)
        w0 = omega0_for(model, geom)
        amp = 16.0 * noise_spectral_density(0.0, model, geom) * w0 / math.pi
        for tau, phi in zip(data[:, 0], data[:, 1]):
            ref = cpmg_closed_form(tau, w0, 32.0 * math.pi / tau, amp)
            assert phi == pytest.approx(ref, rel=0.02)


class TestSweep:
    def test_cartesian_schema_and_cardinality(self, tmp_path):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        cols, data = load_rows(out)
        assert cols == ["d", "tau", "T", "phi_sq", "err"]
        assert data.shape[0] == 2 * 3 * 2
        assert set(np.unique(data[:, 0])) == {1.0, 2.0}

    def test_lambda_axis_emits_lambda_column(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": {"kind": "o3", "c": 1.0, "side": "paramagnet"},
            "geometry": {"d": 1.0},
            "sweep": {"d": {"values": [1.0, 2.0]},
                      "tau": {"log_range": [0.1, 1.0, 3]},
                      "T": {"values": [0.1, 0.2]},
                      "lambda": {"values": [1.5, 2.5]}}})
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        cols, data = load_rows(out)
        assert cols == ["d", "tau", "T", "lambda", "phi_sq", "err"]
        assert data.shape[0] == 2 * 3 * 2 * 2

    def test_lambda_axis_requires_gap_model(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "model": A_FAR_BLOCK, "geometry": {"d": 1.0},
            "sweep": {"d": {"values": [1.0]}, "tau": {"values": [1.0]},
                      "T": {"values": [1.0]}, "lambda": {"values": [1.0]}}})
        assert main(["sweep", "--config", cfg,
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert "lambda" in capsys.readouterr().err

    def test_missing_axis_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": A_FAR_BLOCK, "geometry": {"d": 1.0},
            "sweep": {"d": {"values": [1.0]}, "tau": {"values": [1.0]}}})
        assert main(["sweep", "--config", cfg,
                     "--out", str(tmp_path / "s.csv")]) == 2

    def test_thread_count_does_not_change_output(self, tmp_path):
        cfg = write_cfg(tmp_path, SWEEP_CFG)
        out1, out2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
        assert main(["sweep", "--config", cfg, "--threads", "1",
                     "--out", out1]) == 0
        assert main(["sweep", "--config", cfg, "--threads", "2",
                     "--out", out2]) == 0
        assert sans_stamp(out1) == sans_stamp(out2)

    def test_round_trip_is_byte_identical(self, tmp_path):
        # three distinct values per axis so the file parses back as a grid
        cfg = write_cfg(tmp_path, {**SWEEP_CFG,
                                   "sweep": {"d": {"values": [1.0, 2.0, 4.0]},
                                             "tau": {"log_range": [1.0, 10.0, 3]},
                                             "T": {"values": [0.5, 1.0, 1.5]}}})
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        grid, _, columns = read_sweep_csv(out)
        lines = body(out)
        rebuilt = [",".join(columns)]
        for i in range(grid.d.size):
            rebuilt.append(",".join(_fmt(v) for v in
                                    (grid.d[i], grid.tau[i], grid.T[i],
                                     grid.phi_sq[i], grid.errors[i])))
        assert rebuilt == lines

    def test_malformed_csv_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("d,tau,T,phi_sq\n1,1,1,0.5\n1,2,oops,0.5\n")
        with pytest.raises(ConfigError, match=r":3: non-numeric"):
            read_sweep_csv(str(p))

    def test_short_row_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("d,tau,T,phi_sq\n1,1,1\n")
        with pytest.raises(ConfigError, match=r":2: expected 4 fields"):
            read_sweep_csv(str(p))

    def test_missing_required_column_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("d,tau,temperature,phi_sq\n1,1,1,0.5\n")
        with pytest.raises(ConfigError, match="expected columns"):
            read_sweep_csv(str(p))


def synthetic_classical_csv(path):
    """phi^2 rows from the exact scaling form with mean-field-plus-z=2
    exponents, mimicking a relaxational-model sweep around T_c = 1."""
    d = np.array([1.0, 3.0, 10.0])
    tau = np.geomspace(1.0, 100.0, 5)
    T = np.array([0.7, 0.9, 1.05, 1.25, 1.55])
    D, Ta, TT = np.meshgrid(d, tau, T, indexing="ij")
    nu, z, eta, tc = 0.5, 2.0, 0.0, 1.0
    xi = np.abs(TT - tc) ** (-nu)
    u1 = np.log(Ta) - z * np.log(D)
    u2 = np.log(D / xi)
    phi = TT * Ta * D ** (-(2.0 + eta - z)) * np.exp(-0.05 * u1**2 - 0.25 * u2**2)
    with open(path, "w") as fh:
        fh.write("d,tau,T,phi_sq\n")
        for row in zip(D.ravel(), Ta.ravel(), TT.ravel(), phi.ravel()):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


class TestCollapse:
    def test_classical_fit_recovers_dynamic_exponent(self, tmp_path):
        data = str(tmp_path / "sweep.csv")
        synthetic_classical_csv(data)
        cfg = write_cfg(tmp_path, {"collapse": {
            "mode": "classical", "data": data,
            "bounds": {"eta": [0.0, 0.0], "nu": [0.3, 0.8], "z": [1.2, 2.8]}}})
        out = str(tmp_path / "report.txt")
        assert main(["collapse", "--config", cfg, "--seed", "2",
                     "--out", out]) == 0
        assert 1.9 <= float(report_value(out, "z")) <= 2.1
        assert float(report_value(out, "nu")) == pytest.approx(0.5, abs=0.05)
        assert float(report_value(out, "T_c")) == pytest.approx(1.0, abs=0.02)
        assert report_value(out, "converged") == "true"
        assert int(report_value(out, "n_calls")) > 0
        pts = str(tmp_path / "report.points.csv")
        cols, data_pts = load_rows(pts)
        assert cols == ["ln_tau_scaled", "ln_d_over_xi", "ln_y"]
        assert data_pts.shape == (75, 3)

    def test_pinned_location_bound_is_honored(self, tmp_path):
        data = str(tmp_path / "sweep.csv")
        synthetic_classical_csv(data)
        cfg = write_cfg(tmp_path, {"collapse": {
            "mode": "classical", "data": data,
            "bounds": {"nu": [0.5, 0.5], "eta": [0.0, 0.0], "z": [2.0, 2.0],
                       "T_c": [1.05, 1.05]}}})
        out = str(tmp_path / "report.txt")
        assert main(["collapse", "--config", cfg, "--out", out]) == 0
        assert float(report_value(out, "T_c")) == 1.05
        assert float(report_value(out, "nu")) == 0.5

    @pytest.mark.parametrize("extra, name", [({"bounds": {"Nu": [0.3, 0.8]}}, "Nu"),
                                             ({"grouping": "d"}, "grouping")])
    def test_unknown_name_exits_2(self, tmp_path, capsys, extra, name):
        data = str(tmp_path / "sweep.csv")
        synthetic_classical_csv(data)
        cfg = write_cfg(tmp_path, {"collapse": {"mode": "classical", "data": data, **extra}})
        assert main(["collapse", "--config", cfg,
                     "--out", str(tmp_path / "r.txt")]) == 2
        assert f"'{name}'" in capsys.readouterr().err

    def test_malformed_data_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("d,tau,T,phi_sq\n1,1,1,0.5\n1,2,huh,0.5\n")
        cfg = write_cfg(tmp_path, {"collapse": {"mode": "classical",
                                                "data": str(p)}})
        assert main(["collapse", "--config", cfg,
                     "--out", str(tmp_path / "r.txt")]) == 2
        assert ":3:" in capsys.readouterr().err

    def test_missing_block_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, {})
        assert main(["collapse", "--config", cfg,
                     "--out", str(tmp_path / "r.txt")]) == 2


ORACLE_CFG = {"model": {"kind": "model_a", "xi": 1.0, "T": 1.0},
              "geometry": {"d": 1.0},
              "sequence": {"kind": "ramsey", "tau": 2.0},
              "oracle": {"L": 16, "n_traces": 150}}


class TestOracle:
    def test_report_z_score_in_band(self, tmp_path):
        cfg = write_cfg(tmp_path, ORACLE_CFG)
        out = str(tmp_path / "oracle.txt")
        assert main(["oracle", "--config", cfg, "--seed", "3", "--out", out]) == 0
        assert abs(float(report_value(out, "z_score"))) < 3.0
        assert float(report_value(out, "mc_stderr")) > 0.0
        assert int(report_value(out, "n_traces")) == 150

    def test_same_seed_reproduces(self, tmp_path):
        cfg = write_cfg(tmp_path, ORACLE_CFG)
        out1, out2 = str(tmp_path / "o1.txt"), str(tmp_path / "o2.txt")
        assert main(["oracle", "--config", cfg, "--seed", "3", "--out", out1]) == 0
        assert main(["oracle", "--config", cfg, "--seed", "3", "--out", out2]) == 0
        assert sans_stamp(out1) == sans_stamp(out2)

    def test_different_seed_moves_the_estimate(self, tmp_path):
        cfg = write_cfg(tmp_path, ORACLE_CFG)
        out1, out2 = str(tmp_path / "o1.txt"), str(tmp_path / "o2.txt")
        assert main(["oracle", "--config", cfg, "--seed", "3", "--out", out1]) == 0
        assert main(["oracle", "--config", cfg, "--seed", "4", "--out", out2]) == 0
        assert report_value(out1, "mc_estimate") != report_value(out2, "mc_estimate")

    def test_zero_temperature_reports_zero_variance(self, tmp_path):
        cfg = write_cfg(tmp_path, {**ORACLE_CFG,
                                   "model": {"kind": "model_a", "xi": 1.0,
                                             "T": 0.0}})
        out = str(tmp_path / "oracle.txt")
        assert main(["oracle", "--config", cfg, "--out", out]) == 0
        assert float(report_value(out, "mc_estimate")) == 0.0
        assert float(report_value(out, "mc_stderr")) == 0.0
        assert float(report_value(out, "z_score")) == 0.0

    def test_single_trace_exits_2(self, tmp_path):
        # one trace has no standard error, so no z-score can be reported
        cfg = write_cfg(tmp_path, {**ORACLE_CFG, "oracle": {"L": 16, "n_traces": 1}})
        out = tmp_path / "oracle.txt"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_emit_traces_writes_archive(self, tmp_path):
        cfg = write_cfg(tmp_path, {**ORACLE_CFG,
                                   "oracle": {"L": 16, "n_traces": 5,
                                              "emit_traces": True}})
        out = str(tmp_path / "oracle.txt")
        assert main(["oracle", "--config", cfg, "--seed", "1", "--out", out]) == 0
        arch = np.load(str(tmp_path / "oracle.traces.npz"))
        assert arch["samples"].shape[0] == 5
        assert arch["samples"].shape[1] >= 41
        assert float(arch["dt"]) > 0.0


CRI3_BLOCK = {"J_meV": 2.2, "a_nm": 0.687, "S": 1.5,
              "T_K": 60.0, "d_nm": 10.0, "xi_nm": 1.374}


class TestEstimateT2:
    def test_headline_microseconds(self, tmp_path):
        cfg = write_cfg(tmp_path, {"material": CRI3_BLOCK})
        out = str(tmp_path / "t2.txt")
        assert main(["estimate-t2", "--config", cfg, "--out", out]) == 0
        t2_us = float(report_value(out, "t2_microseconds"))
        assert 4.0 < t2_us < 6.0
        assert t2_us == pytest.approx(5.2641, rel=1e-3)
        assert any(l.startswith("formula: 1/T2") for l in open(out))

    def test_doubling_distance_quadruples_t2(self, tmp_path):
        cfg1 = write_cfg(tmp_path, {"material": CRI3_BLOCK}, "m1.json")
        cfg2 = write_cfg(tmp_path, {"material": {**CRI3_BLOCK, "d_nm": 20.0}},
                         "m2.json")
        o1, o2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        assert main(["estimate-t2", "--config", cfg1, "--out", o1]) == 0
        assert main(["estimate-t2", "--config", cfg2, "--out", o2]) == 0
        r = float(report_value(o2, "t2_seconds")) / float(report_value(o1, "t2_seconds"))
        assert r == pytest.approx(4.0, rel=1e-12)

    def test_missing_field_exits_2(self, tmp_path, capsys):
        block = dict(CRI3_BLOCK)
        del block["xi_nm"]
        cfg = write_cfg(tmp_path, {"material": block})
        assert main(["estimate-t2", "--config", cfg,
                     "--out", str(tmp_path / "t2.txt")]) == 2
        assert "xi_nm" in capsys.readouterr().err
