"""End-to-end checks of the command-line front end.

Commands run in-process through main() with configs written to tmp_path,
so exit codes, stderr diagnostics, and output files are all observable.
"""

import json
import math

import numpy as np
import pytest

from critspec.cli import (_CONFIG_SCHEMA, _MODEL_KEYS, _MODEL_SCHEMA, _SEQUENCE_KINDS,
                          ConfigError, _fmt, main, read_sweep_csv)
from critspec.asymptotics import omega0_for
from critspec.filters import GeometryConfig, PulseSequence
from critspec.models import ModelA
from critspec.noise import (cpmg_closed_form, decoherence_curve, noise_spectral_density,
                            phi_squared)
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


# one model block per kind, setting every key its class reads
MODEL_BLOCKS = {
    "model_a": {"kind": "model_a", "J": 1.0, "gamma0": 1.0, "xi": 2.0, "T": 1.0},
    "model_b": {"kind": "model_b", "J": 1.0, "sigma_s": 1.0, "xi": 2.0, "T": 1.0},
    "diffusive_o3": {"kind": "diffusive_o3", "chi_u": 1.0, "D_s": 1.0, "T": 1.0},
    "tfim": {"kind": "tfim", "c": 1.0, "T": 2.0, "z": 1.0, "eta": 0.0},
    "o3": {"kind": "o3", "c": 1.0, "T": 0.25, "delta": 1.0, "side": "paramagnet"},
}
MOVED_VALUES = {"J": 2.0, "gamma0": 2.0, "sigma_s": 2.0, "xi": 4.0, "T": 0.5,
                "chi_u": 2.0, "D_s": 2.0, "c": 2.0, "z": 2.0, "eta": 0.5, "delta": 2.0,
                "side": "ordered"}
# a value the schema accepts for each model and sequence key
SCHEMA_VALUES = {**MOVED_VALUES, "n_pulses": 2, "switch_times": [0.5]}
_SEQUENCE_PROPS = _CONFIG_SCHEMA["properties"]["sequence"]["properties"]
# every (block, kind, key) the schema accepts and the kind does not read
UNREAD_PAIRS = [("model", kind, key) for kind, keys in _MODEL_KEYS.items()
                for key in _MODEL_SCHEMA["properties"] if key not in keys | {"kind"}] + \
               [("sequence", kind, key) for kind, (_, own) in _SEQUENCE_KINDS.items()
                for key in _SEQUENCE_PROPS if key not in {"kind", "tau", "kappa", *own}]


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

    @pytest.mark.parametrize("form", ["range", "log_range"])
    def test_non_integer_point_count_exits_2(self, tmp_path, capsys, form):
        # 2.5 points used to be cut to 2
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                                   "omega": {form: [1.0, 10.0, 2.5]}})
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
        assert f"config invalid at omega/{form}/2" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_point_count_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                                   "omega": {"range": [1.0, 10.0, 0]}})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 2
        assert "config invalid at omega/range/2" in capsys.readouterr().err

    def test_whole_float_point_count_is_accepted(self, tmp_path):
        # jsonschema counts 3.0 as an integer
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                                   "omega": {"log_range": [1.0, 10.0, 3.0]}})
        out = str(tmp_path / "spec.csv")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
        assert len(body(out)) == 1 + 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("command", ["decohere", "sweep"])
    def test_non_finite_tau_exits_2(self, tmp_path, capsys, command, bad):
        # json reads NaN and Infinity, and the schema's number type takes both
        taus = {"values": [1.0, bad]}
        extra = {"taus": taus} if command == "decohere" else \
            {"sweep": {**SWEEP_CFG["sweep"], "tau": taus}}
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0}, **extra})
        out = tmp_path / "r.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "taus must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_o3_side_exits_2(self, tmp_path, capsys):
        # the schema takes any string; O3Regime names the sides it knows
        cfg = write_cfg(tmp_path, {"model": {"kind": "o3", "c": 1.0, "side": "sideways"},
                                   "geometry": {"d": 1.0}, "taus": {"values": [1.0]}})
        assert main(["decohere", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
        assert "unknown O3 regime 'sideways'" in capsys.readouterr().err

    def test_negative_tolerance_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                                   "omega": {"values": [1.0]},
                                   "tolerances": {"tol_q": -1.0}})
        assert main(["spectrum", "--config", cfg]) == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("command", ["decohere", "spectrum", "sweep"])
    def test_non_finite_tolerance_exits_2(self, tmp_path, capsys, command, bad):
        # the schema's exclusiveMinimum takes NaN and Infinity; integrate does not
        extra = {"decohere": {"taus": {"values": [1.0]}},
                 "spectrum": {"omega": {"values": [1.0]}},
                 "sweep": {"sweep": SWEEP_CFG["sweep"]}}[command]
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                                   "tolerances": {"tol_q": bad}, **extra})
        out = tmp_path / "r.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "rtol must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_top_level_key_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "frobnicate": 1,
                                   "omega": {"values": [1.0]}})
        assert main(["spectrum", "--config", cfg]) == 2

    @pytest.mark.parametrize("block, key", [("tolerances", "tol_omega"),
                                            ("qubit", "kappa")])
    def test_removed_key_exits_2(self, tmp_path, capsys, block, key):
        # tol_omega: every command runs only q-integrals, at tol_q;
        # kappa: the coupling lives in the sequence block alone
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                                   "taus": {"values": [1.0]}, block: {key: 1e-6}})
        assert main(["decohere", "--config", cfg,
                     "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert f"config invalid at {block}" in err and f"'{key}'" in err

    @pytest.mark.parametrize("block, kind, key", UNREAD_PAIRS)
    def test_key_its_kind_does_not_read_exits_2(self, tmp_path, capsys, block, kind, key):
        cfg = {"model": MODEL_BLOCKS["model_a"], "geometry": {"d": 1.0},
               "taus": {"values": [0.5, 2.0]}}
        if block == "model":
            cfg["model"] = {**MODEL_BLOCKS[kind], key: SCHEMA_VALUES[key]}
        else:
            own = _SEQUENCE_KINDS[kind][1]
            cfg["sequence"] = {"kind": kind, **{k: SCHEMA_VALUES[k] for k in own},
                               key: SCHEMA_VALUES[key]}
        assert main(["decohere", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{block} kind '{kind}'" in err and f"'{key}'" in err

    def test_geometry_lattice_constant_exits_2(self, tmp_path, capsys):
        # nothing in the engine reads a lattice constant; lengths are in units of it
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0, "a": 2.0},
                                   "taus": {"values": [1.0]}})
        assert main(["decohere", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert "config invalid at geometry" in err and "'a'" in err

    @pytest.mark.parametrize("kind, key", [(kind, key) for kind in MODEL_BLOCKS
                                           for key in sorted(_MODEL_KEYS[kind])])
    def test_every_key_a_kind_reads_changes_the_output(self, tmp_path, kind, key):
        assert set(MODEL_BLOCKS[kind]) - {"kind"} == _MODEL_KEYS[kind]
        rows = []
        for name, block in (("base", MODEL_BLOCKS[kind]),
                            ("moved", {**MODEL_BLOCKS[kind], key: MOVED_VALUES[key]})):
            cfg = write_cfg(tmp_path, {"model": block, "geometry": {"d": 1.0},
                                       "taus": {"values": [0.5, 2.0]}}, f"{name}.json")
            out = str(tmp_path / f"{name}.csv")
            assert main(["decohere", "--config", cfg, "--out", out]) == 0
            cols, data = load_rows(out)
            rows.append(data[:, cols.index("phi_sq")])
        assert np.all(rows[0] != rows[1])

    @pytest.mark.parametrize("kind, key", [(kind, key) for kind, (_, own) in
                                           _SEQUENCE_KINDS.items() for key in own])
    def test_every_key_a_sequence_kind_reads_is_accepted(self, tmp_path, kind, key):
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                                   "sequence": {"kind": kind, "tau": 2.0, "kappa": 0.5,
                                                key: SCHEMA_VALUES[key]},
                                   "taus": {"values": [0.5, 2.0]}})
        assert main(["decohere", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0

    def test_critical_o3_with_a_lambda_axis_exits_2(self, tmp_path, capsys):
        # nothing reads the gap at criticality, so a lambda axis there moves nothing
        cfg = write_cfg(tmp_path, {
            "model": {"kind": "o3", "side": "critical"}, "geometry": {"d": 1.0},
            "sweep": {"d": {"values": [1.0]}, "tau": {"values": [0.5, 1.0]},
                      "T": {"values": [1.0]}, "lambda": {"values": [0.5, 1.0, 1.5]}}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 2
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [
        ("decohere", {"taus": {"values": [0.3, 1.0]}}),
        ("sweep", {"sweep": SWEEP_CFG["sweep"]})])
    def test_commands_run_at_tol_q(self, tmp_path, monkeypatch, command, extra):
        seen = []

        def spy(*args, **kwargs):
            # the model path's rtol is min(tol_omega, tol_q)
            seen.append(min(kwargs["tol_omega"], kwargs["tol_q"]))
            return decoherence_curve(*args, **kwargs)

        monkeypatch.setattr("critspec.cli.decoherence_curve", spy)
        cfg = write_cfg(tmp_path, {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                                   "tolerances": {"tol_q": 1e-3}, **extra})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
        assert seen and set(seen) == {1e-3}

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

    def test_t2_estimate_lies_between_the_flagged_row_and_the_one_before(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": {"kind": "model_a", "xi": None, "T": 1.0},
            "geometry": {"d": 1.0},
            "taus": {"log_range": [0.05, 50.0, 9]}})
        out = str(tmp_path / "dec.csv")
        assert main(["decohere", "--config", cfg, "--out", out]) == 0
        cols, data = load_rows(out)
        j = int(np.argmax(data[:, cols.index("t2_crossing")]))
        t2 = [float(l.split(":", 1)[1]) for l in open(out) if l.startswith("# t2_estimate:")]
        assert j >= 1 and len(t2) == 1
        assert data[j - 1, 0] <= t2[0] <= data[j, 0]

    def test_curve_below_the_crossing_writes_no_t2(self, tmp_path):
        # 2 <phi^2> stays below 0.07 over these taus
        cfg = write_cfg(tmp_path, {
            "model": {"kind": "model_a", "xi": 1.0, "T": 1.0},
            "geometry": {"d": 0.5},
            "taus": {"log_range": [0.1, 1.0, 8]}})
        out = str(tmp_path / "below.csv")
        assert main(["decohere", "--config", cfg, "--out", out]) == 0
        cols, data = load_rows(out)
        assert np.all(2.0 * data[:, cols.index("phi_sq")] < 1.0)
        assert np.all(data[:, cols.index("t2_crossing")] == 0.0)
        assert not any(l.startswith("# t2_estimate") for l in open(out))

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

    def test_sequence_kappa_sets_the_coupling(self, tmp_path):
        # phi scales with kappa, so kappa = 2 must quadruple <phi^2>
        base = {"model": A_FAR_BLOCK, "geometry": {"d": 1.0},
                "taus": {"values": [0.3, 1.0]}}
        outs = []
        for name, extra in (("unit", {}), ("kappa2", {"sequence": {"kappa": 2.0}})):
            cfg = write_cfg(tmp_path, {**base, **extra}, f"{name}.json")
            outs.append(str(tmp_path / f"{name}.csv"))
            assert main(["decohere", "--config", cfg, "--out", outs[-1]]) == 0
        (cols, unit), (_, scaled) = load_rows(outs[0]), load_rows(outs[1])
        i = cols.index("phi_sq")
        np.testing.assert_allclose(scaled[:, i], 4.0 * unit[:, i], rtol=1e-12)

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
        # the grid keeps the four columns the collapse reads; err is not one
        names = ["d", "tau", "T", "phi_sq"]
        file_rows = [l.split(",") for l in body(out)[1:]]
        expected = [[row[columns.index(c)] for c in names] for row in file_rows]
        rebuilt = [[_fmt(getattr(grid, c)[i]) for c in names] for i in range(grid.size)]
        assert len(rebuilt) == 27 and rebuilt == expected

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
        exits = report_value(out, "start_exits").split(";")
        assert len(exits) == 8
        assert set(exits) <= {"values-agreed", "simplex-collapsed", "iteration-cap"}
        # the amplitude is fixed, not fitted, and the report says so
        assert report_value(out, "xi0") == "1"
        assert report_value(out, "degenerate") == "xi0"
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

    def test_dt_past_twice_tau_exits_2(self, tmp_path, capsys):
        # round(tau/dt) = 0 leaves no time step to put the sequence on
        cfg = write_cfg(tmp_path, {**ORACLE_CFG, "sequence": {"kind": "hahn", "tau": 1.0},
                                   "oracle": {"L": 16, "n_traces": 4, "dt": 5.0}})
        out = tmp_path / "oracle.txt"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: oracle.dt = 5 " in capsys.readouterr().err
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
        assert r == pytest.approx(4.0, rel=1e-12, abs=0)

    def test_missing_field_exits_2(self, tmp_path, capsys):
        block = dict(CRI3_BLOCK)
        del block["xi_nm"]
        cfg = write_cfg(tmp_path, {"material": block})
        assert main(["estimate-t2", "--config", cfg,
                     "--out", str(tmp_path / "t2.txt")]) == 2
        assert "xi_nm" in capsys.readouterr().err
