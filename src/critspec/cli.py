"""Command-line front end: JSON config in, provenance-stamped CSV/report out.

Subcommands: spectrum, decohere, sweep, collapse, oracle, estimate-t2.
Configs are schema-validated JSON; outputs carry '#'-prefixed provenance
headers and are byte-identical across reruns except for the timestamp
line.  Exit codes: 0 success, 2 config error, 3 numeric non-convergence,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from . import __version__
from .collapse import (SweepGrid, classical_collapse, classical_points, quantum_collapse,
                       quantum_points)
from .filters import GeometryConfig, PulseSequence
from .materials import EV, MaterialParams, cri3_t2_estimate
from .models import DiffusiveO3, ModelA, ModelB, O3Regime, TfimQC
from .noise import (NoCrossingError, QubitParams, coherence, decoherence_curve,
                    noise_spectral_density, t2_extract)
from .oracle import (LatticeSpec, mode_sum_phi_squared, monte_carlo_phi_squared,
                     simulate_field_trace)
from .quadrature import QuadratureError

__all__ = ["main", "cmd_spectrum", "cmd_decohere", "cmd_sweep", "cmd_collapse",
           "cmd_oracle", "cmd_estimate_t2", "read_sweep_csv", "ConfigError"]


class ConfigError(ValueError):
    """Invalid configuration or malformed input data."""


_AXIS_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"required": ["values"]},
        {"required": ["range"]},
        {"required": ["log_range"]},
    ],
    "properties": {
        "values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "range": {"type": "array", "items": {"type": "number"},
                  "minItems": 3, "maxItems": 3},
        "log_range": {"type": "array", "items": {"type": "number"},
                      "minItems": 3, "maxItems": 3},
    },
    "additionalProperties": False,
}

_MODEL_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["model_a", "model_b", "diffusive_o3", "tfim", "o3"]},
        "J": {"type": "number"}, "gamma0": {"type": "number"},
        "sigma_s": {"type": "number"}, "xi": {"type": ["number", "null"]},
        "T": {"type": "number"}, "chi_u": {"type": "number"},
        "D_s": {"type": "number"}, "c": {"type": "number"},
        "z": {"type": "number"}, "eta": {"type": "number"},
        "delta": {"type": "number"},
        "side": {"enum": ["critical", "ordered", "paramagnet"]},
    },
    "additionalProperties": False,
}

_CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "model": _MODEL_SCHEMA,
        "geometry": {
            "type": "object",
            "properties": {
                "d": {"type": "number", "exclusiveMinimum": 0},
                "a": {"type": "number", "exclusiveMinimum": 0},
                "layer_offsets": {"type": "array", "items": {"type": "number"}},
                "field_prefactor": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "sequence": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["ramsey", "cpmg", "hahn", "custom"]},
                "tau": {"type": "number", "exclusiveMinimum": 0},
                "kappa": {"type": "number", "minimum": 0},
                "n_pulses": {"type": "integer", "minimum": 1},
                "switch_times": {"type": "array", "items": {"type": "number"}},
            },
            "additionalProperties": False,
        },
        "qubit": {
            "type": "object",
            "properties": {
                "kappa": {"type": "number", "minimum": 0},
                "t1": {"type": ["number", "null"], "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "omega": _AXIS_SCHEMA,
        "taus": _AXIS_SCHEMA,
        "sweep": {
            "type": "object",
            "properties": {"d": _AXIS_SCHEMA, "tau": _AXIS_SCHEMA,
                           "T": _AXIS_SCHEMA, "lambda": _AXIS_SCHEMA},
            "additionalProperties": False,
        },
        "tolerances": {
            "type": "object",
            "properties": {
                "tol_q": {"type": "number", "exclusiveMinimum": 0},
                "tol_omega": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "collapse": {
            "type": "object",
            "required": ["mode", "data"],
            "properties": {
                "mode": {"enum": ["classical", "quantum"]},
                "data": {"type": "string"},
                "bounds": {"type": "object",
                           "additionalProperties": {"type": "array",
                                                    "items": {"type": "number"},
                                                    "minItems": 2, "maxItems": 2}},
                "n_bootstrap": {"type": "integer", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "oracle": {
            "type": "object",
            "properties": {
                "L": {"type": "integer", "minimum": 4},
                "a": {"type": "number", "exclusiveMinimum": 0},
                "n_traces": {"type": "integer", "minimum": 2},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "emit_traces": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "material": {
            "type": "object",
            "required": ["J_meV", "a_nm", "S", "T_K", "d_nm", "xi_nm"],
            "properties": {
                "J_meV": {"type": "number", "exclusiveMinimum": 0},
                "a_nm": {"type": "number", "exclusiveMinimum": 0},
                "S": {"type": "number", "exclusiveMinimum": 0},
                "g_s": {"type": "number", "exclusiveMinimum": 0},
                "g_sigma": {"type": "number", "exclusiveMinimum": 0},
                "T_K": {"type": "number", "exclusiveMinimum": 0},
                "d_nm": {"type": "number", "exclusiveMinimum": 0},
                "xi_nm": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "seed": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}


# checked against the meta-schema once, here, rather than on every config
if jsonschema is not None:
    _validator_cls = jsonschema.validators.validator_for(_CONFIG_SCHEMA)
    _validator_cls.check_schema(_CONFIG_SCHEMA)
    _VALIDATOR = _validator_cls(_CONFIG_SCHEMA)
else:  # pragma: no cover
    _VALIDATOR = None


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if _VALIDATOR is not None:
        # best_match picks the error jsonschema.validate would raise
        e = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(cfg))
        if e is not None:
            loc = "/".join(str(p) for p in e.absolute_path) or "<root>"
            raise ConfigError(f"config invalid at {loc}: {e.message}") from e
    return cfg


def _axis(spec) -> np.ndarray:
    if "values" in spec:
        vals = np.asarray(spec["values"], dtype=float)
    elif "range" in spec:
        lo, hi, n = spec["range"]
        vals = np.linspace(lo, hi, int(n))
    else:
        lo, hi, n = spec["log_range"]
        if lo <= 0 or hi <= 0:
            raise ConfigError("log_range endpoints must be positive")
        vals = np.geomspace(lo, hi, int(n))
    if vals.size == 0:
        raise ConfigError("sweep axis is empty")
    return vals


def _build_model(block, *, T=None, lam=None):
    if not block:
        raise ConfigError("this command needs a 'model' block")
    kind = block["kind"]
    xi = block.get("xi")
    xi = math.inf if xi is None else float(xi)
    temp = float(T if T is not None else block.get("T", 1.0))
    try:
        if kind == "model_a":
            return ModelA(J=block.get("J", 1.0), gamma0=block.get("gamma0", 1.0),
                          xi=xi, T=temp)
        if kind == "model_b":
            return ModelB(J=block.get("J", 1.0), sigma_s=block.get("sigma_s", 1.0),
                          xi=xi, T=temp)
        if kind == "diffusive_o3":
            return DiffusiveO3(chi_u=block["chi_u"], D_s=block["D_s"], T=temp)
        if kind == "tfim":
            return TfimQC(c=block.get("c", 1.0), T=temp,
                          z=block.get("z", 1.0), eta=block.get("eta", 0.0))
        delta = float(lam if lam is not None else block.get("delta", 0.0))
        return O3Regime(c=block.get("c", 1.0), T=temp, delta=delta,
                        side=block.get("side", "critical"))
    except (ValueError, KeyError) as e:
        raise ConfigError(f"bad model block: {e}") from e


def _build_geometry(block: dict, *, d=None) -> GeometryConfig:
    block = dict(block or {})
    if d is not None:
        block["d"] = d
    if "d" not in block:
        raise ConfigError("geometry block needs a probe distance d")
    try:
        return GeometryConfig(d=float(block["d"]), a=float(block.get("a", 1.0)),
                              layer_offsets=tuple(block.get("layer_offsets", (0.0,))),
                              field_prefactor=float(block.get("field_prefactor", 1.0)))
    except ValueError as e:
        raise ConfigError(f"bad geometry block: {e}") from e


def _build_sequence(block: dict) -> PulseSequence:
    block = dict(block or {})
    kind = block.get("kind", "ramsey")
    t = float(block.get("tau", 1.0))
    kappa = float(block.get("kappa", 1.0))
    try:
        if kind == "ramsey":
            return PulseSequence.ramsey(t, kappa)
        if kind == "hahn":
            return PulseSequence.hahn(t, kappa)
        if kind == "cpmg":
            return PulseSequence.cpmg(int(block.get("n_pulses", 1)), t, kappa)
        return PulseSequence.custom(block.get("switch_times", []), t, kappa)
    except ValueError as e:
        raise ConfigError(f"bad sequence block: {e}") from e


def _sequence_block(cfg: dict) -> dict:
    """The sequence block with the qubit's kappa applied.

    kappa may be set in the qubit block, in the sequence block, or in both
    with the same value; two different values are a config error.
    """
    block = dict(cfg.get("sequence") or {})
    qubit = cfg.get("qubit") or {}
    if "kappa" in qubit:
        if "kappa" in block and float(block["kappa"]) != float(qubit["kappa"]):
            raise ConfigError(f"qubit.kappa = {qubit['kappa']} and sequence.kappa = "
                              f"{block['kappa']} disagree; set one of them")
        block["kappa"] = qubit["kappa"]
    return block


def _build_qubit(block: dict) -> QubitParams:
    # qubit.kappa is not read here: _sequence_block moves it into the sequence
    t1 = (block or {}).get("t1")
    try:
        return QubitParams(t1=math.inf if t1 is None else float(t1))
    except ValueError as e:
        raise ConfigError(f"bad qubit block: {e}") from e


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _provenance_lines(command: str, cfg: dict, seed) -> list:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    lines = [
        f"# command: {command}",
        f"# config: {canon}",
        f"# critspec_version: {__version__}",
    ]
    if seed is not None:
        lines.append(f"# seed: {seed}")
    lines.sort()
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    lines.append(f"# generated: {stamp}")
    return lines


def _write_lines(path, lines):
    try:
        with open(path, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as e:
        raise IOFailure(f"cannot write {path}: {e}") from e


def _write_csv(path, header_lines, columns, rows):
    body = (",".join(_fmt(v) if isinstance(v, (float, int, np.floating)) else str(v)
                     for v in row) for row in rows)
    _write_lines(path, [*header_lines, ",".join(columns), *body])


class IOFailure(OSError):
    pass


def _tolerances(cfg):
    tol = cfg.get("tolerances", {})
    return float(tol.get("tol_q", 1e-8)), float(tol.get("tol_omega", 1e-6))


def cmd_spectrum(cfg: dict, out: str, seed=None) -> int:
    if "omega" not in cfg:
        raise ConfigError("spectrum command needs an 'omega' axis")
    omegas = _axis(cfg["omega"])
    model = _build_model(cfg.get("model"))
    geom = _build_geometry(cfg.get("geometry"))
    tol_q, _ = _tolerances(cfg)
    vals, errs = noise_spectral_density(omegas, model, geom, tol_q=tol_q,
                                        full_output=True)
    rows = [(float(w), float(v), float(e)) for w, v, e in zip(omegas, vals, errs)]
    _write_csv(out, _provenance_lines("spectrum", cfg, seed),
               ["omega", "noise_density", "err_estimate"], rows)
    return 0


def cmd_decohere(cfg: dict, out: str, seed=None) -> int:
    if "taus" not in cfg:
        raise ConfigError("decohere command needs a 'taus' axis")
    taus = _axis(cfg["taus"])
    model = _build_model(cfg.get("model"))
    geom = _build_geometry(cfg.get("geometry"))
    seq = _build_sequence(_sequence_block(cfg))
    qubit = _build_qubit(cfg.get("qubit"))
    tol_q, tol_w = _tolerances(cfg)
    curve = decoherence_curve(taus, seq, model, geom, tol_omega=tol_w, tol_q=tol_q)
    coh_inf = np.exp(-2.0 * curve.phi_sq)
    columns = ["tau", "phi_sq", "coherence", "err"]
    cols = [curve.taus, curve.phi_sq, coh_inf, curve.errors]
    if math.isfinite(qubit.t1):
        columns.append("coherence_t1")
        cols.append(coherence(curve.taus, qubit, curve.phi_sq))
    crossing = 2.0 * curve.phi_sq >= 1.0
    flag = np.zeros(curve.taus.size, dtype=int)
    header = _provenance_lines("decohere", cfg, seed)
    if crossing.any() and not crossing.all():
        flag[int(np.argmax(crossing))] = 1
        try:
            t2 = t2_extract(curve)
            header.insert(0, f"# t2_estimate: {_fmt(t2)}")
        except (NoCrossingError, ValueError):
            pass
    columns.append("t2_crossing")
    cols.append(flag)
    rows = list(zip(*[np.asarray(c, dtype=float) for c in cols]))
    _write_csv(out, header, columns, rows)
    return 0


def cmd_sweep(cfg: dict, out: str, seed=None) -> int:
    sweep = cfg.get("sweep")
    if not sweep:
        raise ConfigError("sweep command needs a 'sweep' block")
    d_axis = _axis(sweep["d"]) if "d" in sweep else None
    t_axis = _axis(sweep["tau"]) if "tau" in sweep else None
    T_axis = _axis(sweep["T"]) if "T" in sweep else None
    l_axis = _axis(sweep["lambda"]) if "lambda" in sweep else None
    if d_axis is None or t_axis is None or T_axis is None:
        raise ConfigError("sweep needs at least d, tau, and T axes")
    if "model" not in cfg:
        raise ConfigError("sweep command needs a 'model' block")
    if l_axis is not None and cfg["model"]["kind"] != "o3":
        raise ConfigError("a lambda axis requires the 'o3' model "
                          "(lambda maps to the gap parameter delta)")
    tol_q, tol_w = _tolerances(cfg)
    geom_block = cfg.get("geometry", {"d": 1.0})
    seq = _build_sequence(_sequence_block(cfg))
    lam_values = [None] if l_axis is None else list(l_axis)
    columns = ["d", "tau", "T"] + (["lambda"] if l_axis is not None else []) \
        + ["phi_sq", "err"]
    rows = []
    for d in map(float, d_axis):
        for T in map(float, T_axis):
            for lam in lam_values:
                model = _build_model(cfg["model"], T=T, lam=lam)
                geom = _build_geometry(geom_block, d=d)
                curve = decoherence_curve(t_axis, seq, model, geom,
                                          tol_omega=tol_w, tol_q=tol_q)
                lam_col = () if lam is None else (lam,)
                for t, p, e in zip(curve.taus, curve.phi_sq, curve.errors):
                    rows.append((d, float(t), T) + lam_col + (float(p), float(e)))
    _write_csv(out, _provenance_lines("sweep", cfg, seed), columns, rows)
    return 0


def read_sweep_csv(path):
    """Parse a sweep CSV back into (SweepGrid, header_lines, columns)."""
    try:
        with open(path) as fh:
            raw = fh.read().splitlines()
    except OSError as e:
        raise IOFailure(f"cannot read {path}: {e}") from e
    header = [l for l in raw if l.startswith("#")]
    body = [(i + 1, l) for i, l in enumerate(raw)
            if l.strip() and not l.startswith("#")]
    if not body:
        raise ConfigError(f"{path}: no data rows")
    col_line_no, col_line = body[0]
    columns = [c.strip() for c in col_line.split(",")]
    need = {"d", "tau", "T", "phi_sq"}
    if not need.issubset(columns):
        raise ConfigError(f"{path}:{col_line_no}: expected columns containing "
                          f"{sorted(need)}, got {columns}")
    data = {c: [] for c in columns}
    for line_no, line in body[1:]:
        parts = line.split(",")
        if len(parts) != len(columns):
            raise ConfigError(f"{path}:{line_no}: expected {len(columns)} "
                              f"fields, got {len(parts)}")
        for c, p in zip(columns, parts):
            try:
                data[c].append(float(p))
            except ValueError:
                raise ConfigError(f"{path}:{line_no}: non-numeric value "
                                  f"{p!r} in column {c}") from None
    try:
        grid = SweepGrid(d=np.array(data["d"]), tau=np.array(data["tau"]),
                         T=np.array(data["T"]), phi_sq=np.array(data["phi_sq"]),
                         errors=np.array(data["err"]) if "err" in data else None,
                         lam=np.array(data["lambda"]) if "lambda" in data else None)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e
    return grid, header, columns


def cmd_collapse(cfg: dict, out: str, seed=0) -> int:
    block = cfg.get("collapse")
    if not block:
        raise ConfigError("collapse command needs a 'collapse' block")
    grid, _, _ = read_sweep_csv(block["data"])
    bounds = {k: tuple(v) for k, v in block.get("bounds", {}).items()}
    mode = block["mode"]
    try:
        if mode == "classical":
            res = classical_collapse(grid, bounds, seed,
                                     n_bootstrap=int(block.get("n_bootstrap", 0)))
            pts = classical_points(grid, (res.nu, res.eta, res.z,
                                          res.critical_value, res.amplitude))
            pt_cols = ["ln_tau_scaled", "ln_d_over_xi", "ln_y"]
        else:
            res = quantum_collapse(grid, bounds, seed,
                                   n_bootstrap=int(block.get("n_bootstrap", 0)))
            pts = quantum_points(grid, (res.nu, res.eta, res.z,
                                        res.critical_value, res.amplitude))
            pt_cols = ["ln_delta_tau", "ln_d_delta", "ln_delta_over_T", "ln_y"]
    except ValueError as e:
        raise ConfigError(str(e)) from e
    loc_name = "T_c" if mode == "classical" else "lambda_c"
    amp_name = "xi0" if mode == "classical" else "Delta0"
    lines = _provenance_lines("collapse", cfg, seed)
    kv = [("mode", mode), ("nu", _fmt(res.nu)), ("eta", _fmt(res.eta)),
          ("z", _fmt(res.z)), (loc_name, _fmt(res.critical_value)),
          (amp_name, _fmt(res.amplitude)), ("residual", _fmt(res.residual)),
          ("converged", str(res.converged).lower()),
          ("clamped", str(res.clamped).lower()),
          ("n_points", str(res.n_points)), ("seed", str(res.seed)),
          ("n_calls", str(res.n_calls))]
    if res.degenerate:
        kv.append(("degenerate", ";".join(res.degenerate)))
    if res.covariance is not None:
        for i, ni in enumerate(res.param_names):
            kv.append((f"var_{ni}", _fmt(res.covariance[i, i])))
    _write_lines(out, lines + [f"{k} = {v}" for k, v in kv])
    pts_path = os.path.splitext(out)[0] + ".points.csv"
    _write_csv(pts_path, lines, pt_cols, [tuple(map(float, row)) for row in pts])
    if not res.converged:
        return 3
    return 0


def cmd_oracle(cfg: dict, out: str, seed=0) -> int:
    block = dict(cfg.get("oracle", {}))
    model = _build_model(cfg.get("model"))
    geom = _build_geometry(cfg.get("geometry"))
    seq = _build_sequence(_sequence_block(cfg))
    lattice = LatticeSpec(L=int(block.get("L", 64)), a=float(block.get("a", 1.0)))
    n_traces = int(block.get("n_traces", 400))
    n_pulses = max(1, seq.switches().size)
    dt = float(block.get("dt", seq.tau / (40.0 * n_pulses)))
    n_steps = int(round(seq.tau / dt))
    dt = seq.tau / n_steps  # keep switches on-grid
    traces = [simulate_field_trace(model, geom, lattice, seq.tau, dt, seed,
                                   trace_index=i) for i in range(n_traces)]
    mc, se = monte_carlo_phi_squared(traces, seq)
    ref = mode_sum_phi_squared(model, geom, lattice, seq)
    z = (mc - ref) / se if se > 0 else 0.0
    lines = _provenance_lines("oracle", cfg, seed)
    _write_lines(out, lines + [f"mc_estimate = {_fmt(mc)}", f"mc_stderr = {_fmt(se)}",
                               f"mode_sum = {_fmt(ref)}", f"z_score = {_fmt(z)}",
                               f"n_traces = {n_traces}", f"dt = {_fmt(dt)}"])
    if block.get("emit_traces"):
        tr_path = os.path.splitext(out)[0] + ".traces.npz"
        try:
            np.savez_compressed(tr_path, dt=dt, seed=seed,
                                samples=np.stack([t.samples for t in traces]))
        except OSError as e:
            raise IOFailure(f"cannot write {tr_path}: {e}") from e
    return 0


def cmd_estimate_t2(cfg: dict, out: str, seed=None) -> int:
    block = cfg.get("material")
    if not block:
        raise ConfigError("estimate-t2 command needs a 'material' block")
    mat = MaterialParams(J=block["J_meV"] * 1e-3 * EV, a=block["a_nm"] * 1e-9,
                         S=block["S"], g_s=block.get("g_s", 2.0),
                         g_sigma=block.get("g_sigma", 2.0))
    T = float(block["T_K"])
    d = float(block["d_nm"]) * 1e-9
    xi = float(block["xi_nm"]) * 1e-9
    t2 = cri3_t2_estimate(mat, T, d, xi)
    lines = _provenance_lines("estimate-t2", cfg, seed)
    _write_lines(out, lines + [
        "formula: 1/T2 = 2 (g_sigma mu_B/(2 hbar))^2 "
        "* (g_s mu_B mu_0 S)^2/(16 pi a^4 d^2) "
        "* hbar k_B T xi^4/(J^2 a^4)",
        f"J_meV = {_fmt(block['J_meV'])}",
        f"a_nm = {_fmt(block['a_nm'])}",
        f"S = {_fmt(block['S'])}",
        f"T_K = {_fmt(T)}",
        f"d_nm = {_fmt(block['d_nm'])}",
        f"xi_nm = {_fmt(block['xi_nm'])}",
        f"t2_seconds = {_fmt(t2)}",
        f"t2_microseconds = {_fmt(t2 * 1e6)}"])
    return 0


_DEFAULT_OUT = {
    "spectrum": "spectrum.csv",
    "decohere": "decohere.csv",
    "sweep": "sweep.csv",
    "collapse": "collapse_report.txt",
    "oracle": "oracle_report.txt",
    "estimate-t2": "estimate_t2.txt",
}


def _thread_count(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("CRITSPEC_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"CRITSPEC_THREADS must be an integer, got {env!r}")
    return max(1, os.cpu_count() or 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="critspec",
        description="Decoherence spectroscopy of critical magnetic fluctuations")
    parser.add_argument("command", choices=sorted(_DEFAULT_OUT))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None,
                        help="no effect: validated, then ignored "
                             "(every command runs in one process)")
    parser.add_argument("--out", default=None, help="output file path")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        out = args.out or _DEFAULT_OUT[args.command]
        _thread_count(args)  # validated only: every command runs in one process
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out, seed)
        if args.command == "decohere":
            return cmd_decohere(cfg, out, seed)
        if args.command == "sweep":
            return cmd_sweep(cfg, out, seed)
        if args.command == "collapse":
            return cmd_collapse(cfg, out, seed)
        if args.command == "oracle":
            return cmd_oracle(cfg, out, seed)
        return cmd_estimate_t2(cfg, out, seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except QuadratureError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        # engine-level rejection of an unphysical parameter combination
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
