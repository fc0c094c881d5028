"""Command-line front end: JSON config in, provenance-stamped CSV/report out.

Subcommands: spectrum, decohere, sweep, collapse, oracle, estimate-t2.
Configs are JSON, validated against one schema before any command runs;
outputs carry '#'-prefixed provenance
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
from dataclasses import fields
from datetime import datetime, timezone

import jsonschema
import numpy as np

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


# the keys a model kind accepts are its class's fields
_MODEL_KINDS = {"model_a": ModelA, "model_b": ModelB, "diffusive_o3": DiffusiveO3,
                "tfim": TfimQC, "o3": O3Regime}
_MODEL_KEYS = {kind: {f.name for f in fields(cls)} for kind, cls in _MODEL_KINDS.items()}
# the CLI's values for fields the library requires; a missing or null xi is critical
_MODEL_DEFAULTS = {"J": 1.0, "gamma0": 1.0, "sigma_s": 1.0, "T": 1.0, "c": 1.0,
                   "xi": math.inf}
# every sequence kind takes tau and kappa; these are the keys it adds, with
# their defaults, in its constructor's order
_SEQUENCE_KINDS = {"ramsey": (PulseSequence.ramsey, {}),
                   "hahn": (PulseSequence.hahn, {}),
                   "cpmg": (PulseSequence.cpmg, {"n_pulses": 1}),
                   "custom": (PulseSequence.custom, {"switch_times": []})}


# [lo, hi, point count]; with values' minItems, no axis is empty
_SPAN_SCHEMA = {"type": "array", "minItems": 3, "maxItems": 3,
                "prefixItems": [{"type": "number"}, {"type": "number"},
                                {"type": "integer", "minimum": 1}]}

_AXIS_SCHEMA = {
    "type": "object",
    # exactly one of the three properties below
    "minProperties": 1,
    "maxProperties": 1,
    "properties": {
        "values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "range": _SPAN_SCHEMA,
        "log_range": _SPAN_SCHEMA,
    },
    "additionalProperties": False,
}

# every model field is a number but xi (null is critical) and O3Regime's side
_MODEL_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(_MODEL_KINDS)},
        **{key: {"type": "number"} for key in sorted(set().union(*_MODEL_KEYS.values()))},
        "xi": {"type": ["number", "null"]},
        "side": {"type": "string"},
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
                "layer_offsets": {"type": "array", "items": {"type": "number"}},
                "field_prefactor": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "sequence": {
            "type": "object",
            "properties": {
                "kind": {"enum": list(_SEQUENCE_KINDS)},
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
_validator_cls = jsonschema.validators.validator_for(_CONFIG_SCHEMA)
_validator_cls.check_schema(_CONFIG_SCHEMA)
_VALIDATOR = _validator_cls(_CONFIG_SCHEMA)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    # best_match picks the error jsonschema.validate would raise
    e = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(cfg))
    if e is not None:
        loc = "/".join(str(p) for p in e.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {loc}: {e.message}") from e
    return cfg


def _axis(spec) -> np.ndarray:
    if "values" in spec:
        return np.asarray(spec["values"], dtype=float)
    if "range" in spec:
        lo, hi, n = spec["range"]
        return np.linspace(lo, hi, int(n))
    lo, hi, n = spec["log_range"]
    if lo <= 0 or hi <= 0:
        raise ConfigError("log_range endpoints must be positive")
    return np.geomspace(lo, hi, int(n))


def _reject_unread(name, kind, block, keys):
    unread = sorted(set(block) - keys - {"kind"})
    if unread:
        raise ConfigError(f"{name} kind {kind!r} does not read {unread[0]!r}")


def _given(block, **convert):
    """The keys of block named in convert, each through its converter: the
    library class keeps its own default for a key the block leaves out."""
    return {k: conv(block[k]) for k, conv in convert.items() if k in block}


def _build_model(block, *, T=None, lam=None):
    if not block:
        raise ConfigError("this command needs a 'model' block")
    kind = block["kind"]
    keys = _MODEL_KEYS[kind]
    _reject_unread("model", kind, block, keys)
    params = {k: v for k, v in _MODEL_DEFAULTS.items() if k in keys}
    params.update((k, v if isinstance(v, str) else float(v)) for k, v in block.items()
                  if k != "kind" and v is not None)
    if T is not None:
        params["T"] = float(T)
    if lam is not None:
        params["delta"] = float(lam)
    try:
        return _MODEL_KINDS[kind](**params)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad model block: {e}") from e


def _build_geometry(block: dict, *, d=None) -> GeometryConfig:
    block = dict(block or {})
    if d is not None:
        block["d"] = d
    if "d" not in block:
        raise ConfigError("geometry block needs a probe distance d")
    try:
        return GeometryConfig(d=float(block["d"]),
                              **_given(block, layer_offsets=tuple, field_prefactor=float))
    except ValueError as e:
        raise ConfigError(f"bad geometry block: {e}") from e


def _build_sequence(block: dict) -> PulseSequence:
    block = block or {}
    kind = block.get("kind", "ramsey")
    build, own = _SEQUENCE_KINDS[kind]
    _reject_unread("sequence", kind, block, {"tau", "kappa", *own})
    try:
        return build(*(block.get(k, v) for k, v in own.items()),
                     float(block.get("tau", 1.0)), **_given(block, kappa=float))
    except ValueError as e:
        raise ConfigError(f"bad sequence block: {e}") from e


def _build_qubit(block: dict) -> QubitParams:
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


def _tol_q(cfg) -> float:
    return float(cfg.get("tolerances", {}).get("tol_q", 1e-8))


def cmd_spectrum(cfg: dict, out: str, seed=None) -> int:
    if "omega" not in cfg:
        raise ConfigError("spectrum command needs an 'omega' axis")
    omegas = _axis(cfg["omega"])
    model = _build_model(cfg.get("model"))
    geom = _build_geometry(cfg.get("geometry"))
    tol_q = _tol_q(cfg)
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
    seq = _build_sequence(cfg.get("sequence"))
    qubit = _build_qubit(cfg.get("qubit"))
    tol_q = _tol_q(cfg)
    # the model path runs at the tighter of tol_omega and tol_q: equal values make it tol_q
    curve = decoherence_curve(taus, seq, model, geom, tol_omega=tol_q, tol_q=tol_q)
    coh_inf = np.exp(-2.0 * curve.phi_sq)
    columns = ["tau", "phi_sq", "coherence", "err"]
    cols = [curve.taus, curve.phi_sq, coh_inf, curve.errors]
    if math.isfinite(qubit.t1):
        columns.append("coherence_t1")
        cols.append(coherence(curve.taus, qubit, curve.phi_sq))
    flag = np.zeros(curve.taus.size, dtype=int)
    header = _provenance_lines("decohere", cfg, seed)
    try:
        t2 = t2_extract(curve)
    except NoCrossingError:
        t2 = None  # the curve stays on one side of 2 <phi^2> = 1
    if t2 is not None:
        flag[int(np.argmax(2.0 * curve.phi_sq >= 1.0))] = 1
        header.insert(0, f"# t2_estimate: {_fmt(t2)}")
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
    tol_q = _tol_q(cfg)
    geom_block = cfg.get("geometry", {"d": 1.0})
    seq = _build_sequence(cfg.get("sequence"))
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
                                          tol_omega=tol_q, tol_q=tol_q)
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
    loc_name, amp_name = res.param_names[3:]
    lines = _provenance_lines("collapse", cfg, seed)
    kv = [("mode", mode), ("nu", _fmt(res.nu)), ("eta", _fmt(res.eta)),
          ("z", _fmt(res.z)), (loc_name, _fmt(res.critical_value)),
          (amp_name, _fmt(res.amplitude)), ("residual", _fmt(res.residual)),
          ("converged", str(res.converged).lower()),
          ("clamped", str(res.clamped).lower()),
          ("n_points", str(res.n_points)), ("seed", str(res.seed)),
          ("n_calls", str(res.n_calls))]
    if res.start_exits:
        kv.append(("start_exits", ";".join(res.start_exits)))
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
    seq = _build_sequence(cfg.get("sequence"))
    lattice = LatticeSpec(L=int(block.get("L", 64)), **_given(block, a=float))
    n_traces = int(block.get("n_traces", 400))
    n_pulses = max(1, seq.switches().size)
    dt = float(block.get("dt", seq.tau / (40.0 * n_pulses)))
    n_steps = int(round(seq.tau / dt))
    if n_steps == 0:
        raise ConfigError(f"oracle.dt = {_fmt(dt)} leaves no time step in "
                          f"sequence.tau = {_fmt(seq.tau)}")
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
                         S=block["S"], **_given(block, g_s=float, g_sigma=float))
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


# each command's function and default output path
_COMMANDS = {
    "spectrum": (cmd_spectrum, "spectrum.csv"),
    "decohere": (cmd_decohere, "decohere.csv"),
    "sweep": (cmd_sweep, "sweep.csv"),
    "collapse": (cmd_collapse, "collapse_report.txt"),
    "oracle": (cmd_oracle, "oracle_report.txt"),
    "estimate-t2": (cmd_estimate_t2, "estimate_t2.txt"),
}


# built once, as _VALIDATOR is, rather than on every main() call
_PARSER = argparse.ArgumentParser(
    prog="critspec",
    description="Decoherence spectroscopy of critical magnetic fluctuations")
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--config", required=True, help="JSON config path")
_PARSER.add_argument("--seed", type=int, default=None)
_PARSER.add_argument("--threads", type=int, default=None,
                     help="no effect: every command runs in one process")
_PARSER.add_argument("--out", default=None, help="output file path")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        command, default_out = _COMMANDS[args.command]
        return command(cfg, args.out or default_out, seed)
    except QuadratureError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        # a ConfigError, or the engine's rejection of an unphysical parameter
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
