"""The benchmark's four workloads: inputs, operations and output checks.

Each workload makes its inputs from the benchmark seed in setup(), lists
the operations of one round in ops(), and checks what they returned in
check().  An operation returns (items, output): items counts the work
unit the workload reports per second, output is what check() inspects.
Every check compares with reference.py or with an exact property, never
with stored output.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.stats import chi2

import reference as ref

import critspec.cli
from critspec import collapse, noise, oracle
from critspec.collapse import SweepGrid
from critspec.filters import GeometryConfig, PulseSequence
from critspec.models import ModelA, ModelB


@dataclass
class Op:
    label: str
    kind: str          # operations of the workload's `timed_kind` give op_p50_ms
    fn: Callable


def _rows(path):
    """(header lines, column names, float rows) of a critspec CSV."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if l and not l.startswith("#")]
    cols = body[0].split(",")
    return header, cols, np.array([[float(x) for x in l.split(",")] for l in body[1:]])


def _stable_text(path):
    """File text without the timestamp line, the only one that may differ."""
    with open(path) as fh:
        return "".join(l for l in fh if not l.startswith("# generated:"))


def _sequence_block(name):
    if name in ("ramsey", "hahn"):
        return {"kind": name}
    return {"kind": "cpmg", "n_pulses": int(name.split("-")[1])}


def _switches(seq_block, tau):
    return ref.switch_times(seq_block["kind"], tau, seq_block.get("n_pulses", 0))


class Curves:
    """decohere configs run in-process through critspec.cli.main."""

    name = "curves"
    timed_kind = "curve"
    ROW_RTOL = 1e-5

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def _configs(self):
        rng = np.random.default_rng([self.seed, 1])
        jit = lambda: float(rng.uniform(0.95, 1.05))
        seqs = ["ramsey", "hahn", "cpmg-8", "cpmg-128"]
        out = []

        def add(model, d, seq, lo, hi, n=10):
            out.append({"model": model, "geometry": {"d": round(d, 6)},
                        "sequence": _sequence_block(seq),
                        "taus": {"log_range": [lo, hi, n]}})

        i = 0
        for kind, p in (("model_a", 2), ("model_b", 4)):
            for xi in (1.0, 5.0, None):
                for d in (1.0, 3.0, 10.0):
                    dd = d * jit()
                    model = {"kind": kind, "xi": None if xi is None else xi * jit(),
                             "T": jit()}
                    s = jit()
                    add(model, dd, seqs[i % 4], 0.1 * s * dd**p, 3e3 * s * dd**p)
                    i += 1
        add({"kind": "model_a", "xi": 5.0 * jit()}, 3.0 * jit(), "cpmg-512", 3.0, 3e4, 8)
        add({"kind": "model_b", "xi": 1.0 * jit()}, 1.0 * jit(), "cpmg-512", 10.0, 1e5, 8)
        # the fixed tau windows of acceptance criteria 02 and 03
        add({"kind": "model_b", "xi": None}, jit(), "ramsey", 1e2, 1e4, 9)
        add({"kind": "model_a", "xi": None}, jit(), "ramsey", 1e4, 1e6, 9)
        for T, seq in ((0.5, "hahn"), (1.0, "ramsey")):
            add({"kind": "tfim", "T": T * jit()}, 2.0 * jit(), seq, 0.1, 1e3)
        add({"kind": "o3", "side": "critical", "T": 0.5 * jit()}, 2.0 * jit(),
            "ramsey", 0.1, 1e3)
        add({"kind": "o3", "side": "paramagnet", "T": 0.25 * jit(), "delta": 1.0},
            2.0 * jit(), "hahn", 0.1, 1e3)
        return out

    def setup(self):
        self.configs, self.paths = self._configs(), []
        for i, cfg in enumerate(self.configs):
            path = os.path.join(self.workdir, f"curve{i:02d}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            self.paths.append(path)
        self._decohere(self.paths[0], os.path.join(self.workdir, "warmup.csv"))

    def _decohere(self, cfg_path, out_path):
        rc = critspec.cli.main(["decohere", "--config", cfg_path, "--out", out_path,
                                "--threads", "1"])
        if rc != 0:
            raise RuntimeError(f"decohere exited {rc}")
        with open(out_path) as fh:
            return sum(1 for l in fh if l[:1].isdigit())

    def ops(self, round_no):
        ops = []
        for i, path in enumerate(self.paths):
            out = os.path.join(self.workdir, f"curve{i:02d}.r{round_no}.csv")
            ops.append(Op(f"curve{i:02d}", "curve",
                          lambda p=path, o=out: (self._decohere(p, o), o)))
        return ops

    def check(self, done):
        """done: {label: [output path per round]}."""
        problems, n_rows, n_t2, worst = [], 0, 0, 0.0
        for i, cfg in enumerate(self.configs):
            label = f"curve{i:02d}"
            paths = done.get(label, [])
            if not paths:
                continue
            first = _stable_text(paths[0])
            if any(_stable_text(p) != first for p in paths[1:]):
                problems.append(f"{label}: reruns differ from the first run")
            header, cols, rows = _rows(paths[0])
            tau, phi, coh = (rows[:, cols.index(c)] for c in ("tau", "phi_sq", "coherence"))
            if not np.allclose(coh, np.exp(-2.0 * phi), rtol=1e-15, atol=0.0):
                problems.append(f"{label}: coherence != exp(-2 phi_sq)")
            seq, d, model = cfg["sequence"], cfg["geometry"]["d"], cfg["model"]
            for t, p in zip(tau, phi):
                want = ref.phi_squared_ref(model, d, _switches(seq, t), t)
                n_rows += 1
                worst = max(worst, abs(p / want - 1.0))
                if abs(p / want - 1.0) > self.ROW_RTOL:
                    problems.append(f"{label}: phi_sq({t:.6g}) = {p:.12g}, "
                                    f"reference {want:.12g}")
            for line in header:
                if line.startswith("# t2_estimate:"):
                    n_t2 += 1
                    t2 = float(line.split(":")[1])
                    val = 2.0 * ref.phi_squared_ref(model, d, _switches(seq, t2), t2)
                    worst = max(worst, abs(val - 1.0))
                    if abs(val - 1.0) > self.ROW_RTOL:
                        problems.append(f"{label}: 2 phi_sq(T2 = {t2:.12g}) = {val:.12g}")
        return problems, {"curves": len(self.configs), "rows_checked": n_rows,
                          "t2_checked": n_t2, "worst_rel_error": worst,
                          "rtol": self.ROW_RTOL}


class Spectra:
    """phi_squared with explicit spectrum callables, plus the CLI spectrum."""

    name = "spectra"
    timed_kind = "integral"
    N_RTOL = 1e-6

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        u = lambda lo, hi: float(rng.uniform(lo, hi))
        self.cases = []   # (label, seq block, tau, tol, spectrum terms or flat level)
        names = ["ramsey", "hahn", "cpmg-2", "cpmg-8", "cpmg-32", "cpmg-128", "cpmg-256"]
        for name in names:
            for tol in (1e-6, 1e-9):
                blk, tau = _sequence_block(name), u(0.5, 2.0)
                n_seg = len(_switches(blk, tau)) + 1
                w0 = math.pi * n_seg / tau * u(0.3, 3.0)
                self.cases.append((f"lor-{name}-{tol:g}", blk, tau, tol,
                                   [(u(0.5, 2.0), w0)]))
        for name in ("ramsey", "hahn", "cpmg-8", "cpmg-64"):
            for tol in (1e-6, 1e-9):
                blk, tau = _sequence_block(name), u(0.5, 2.0)
                n_seg = len(_switches(blk, tau)) + 1
                wp = math.pi * n_seg / tau
                terms = [(u(0.5, 2.0), wp * u(0.02, 0.2)), (u(0.5, 2.0), wp * u(2.0, 20.0))]
                self.cases.append((f"sum-{name}-{tol:g}", blk, tau, tol, terms))
        for name in ("ramsey", "hahn", "cpmg-16"):
            self.cases.append((f"flat-{name}", _sequence_block(name), u(0.5, 2.0),
                               1e-6, u(0.5, 2.0)))
        # criterion 05: CPMG-32 at tau = 1 across omega0/omega_p in [0.01, 100]
        wp = 32.0 * math.pi
        for k, ratio in enumerate(np.geomspace(0.01, 100.0, 21)):
            self.cases.append((f"c05-{k:02d}", {"kind": "cpmg", "n_pulses": 32}, 1.0,
                               1e-9, [(1.0, ratio * u(0.97, 1.03) * wp)]))
        self.weights = [(f"fwi-{n}", n, u(0.8, 1.5), u(1.0, 3.0)) for n in (0, 1, 2, 5, 32)]
        self.spectrum_cfgs = []
        for i, model in enumerate(({"kind": "model_a", "xi": 5.0 * u(0.95, 1.05)},
                                   {"kind": "model_b", "xi": None})):
            cfg = {"model": model, "geometry": {"d": round(u(1.0, 3.0), 6)},
                   "omega": {"log_range": [1e-3 * u(0.9, 1.1), 10.0 * u(0.9, 1.1), 40]}}
            path = os.path.join(self.workdir, f"spectrum{i}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            self.spectrum_cfgs.append((path, cfg))
        self.ops(-1)[0].fn()   # warm-up

    @staticmethod
    def _sequence(blk, tau, kappa=1.0):
        if blk["kind"] == "ramsey":
            return PulseSequence.ramsey(tau, kappa)
        return PulseSequence.cpmg(blk.get("n_pulses", 1), tau, kappa)

    def _integral(self, blk, tau, tol, spec):
        if isinstance(spec, float):
            fn = lambda w, n0=spec: np.full(np.shape(w), n0)
        else:
            fn = lambda w, t=spec: sum(a * w0 / (w0 * w0 + w * w) for a, w0 in t)
        return 1, noise.phi_squared(tau, self._sequence(blk, tau), spectrum=fn, tol_omega=tol)

    def _weight(self, n, kappa, tau):
        seq = PulseSequence.ramsey(tau, kappa) if n == 0 else PulseSequence.cpmg(n, tau, kappa)
        return 1, noise.filter_weight_integral(seq)[0]

    def _spectrum(self, cfg_path, out_path):
        rc = critspec.cli.main(["spectrum", "--config", cfg_path, "--out", out_path,
                                "--threads", "1"])
        if rc != 0:
            raise RuntimeError(f"spectrum exited {rc}")
        return 0, out_path

    def ops(self, round_no):
        ops = [Op(label, "integral", lambda c=(blk, tau, tol, spec): self._integral(*c))
               for label, blk, tau, tol, spec in self.cases]
        ops += [Op(label, "weight", lambda c=(n, k, t): self._weight(*c))
                for label, n, k, t in self.weights]
        for i, (path, _) in enumerate(self.spectrum_cfgs):
            out = os.path.join(self.workdir, f"spectrum{i}.r{round_no}.csv")
            ops.append(Op(f"spectrum{i}", "spectrum",
                          lambda p=path, o=out: self._spectrum(p, o)))
        return ops

    def check(self, done):
        problems, worst = [], 0.0
        for label, blk, tau, tol, spec in self.cases:
            vals = done.get(label, [])
            if not vals:
                continue
            if isinstance(spec, float):
                want, bound = spec * tau, 0.0
            else:
                want, bound = ref.lorentzian_phi_squared(spec, _switches(blk, tau), tau)
            if any(v != vals[0] for v in vals[1:]):
                problems.append(f"{label}: reruns differ")
            worst = max(worst, abs(vals[0] - want) / (tol * abs(want) + bound))
            if abs(vals[0] - want) > tol * abs(want) + bound:
                problems.append(f"{label}: {vals[0]:.15g}, exact {want:.15g} "
                                f"(rel {vals[0] / want - 1:.2e}, tol {tol:g})")
        for label, n, kappa, tau in self.weights:
            for v in done.get(label, [])[:1]:
                if abs(v / (kappa**2 * tau) - 1.0) > 1e-6:
                    problems.append(f"{label}: filter weight {v:.15g} != kappa^2 tau")
        for i, (_, cfg) in enumerate(self.spectrum_cfgs):
            paths = done.get(f"spectrum{i}", [])
            if not paths:
                continue
            if any(_stable_text(p) != _stable_text(paths[0]) for p in paths[1:]):
                problems.append(f"spectrum{i}: reruns differ")
            _, cols, rows = _rows(paths[0])
            for w, n in rows[:, [cols.index("omega"), cols.index("noise_density")]]:
                want = ref.noise_density_ref(cfg["model"], cfg["geometry"]["d"], w)
                if abs(n / want - 1.0) > self.N_RTOL:
                    problems.append(f"spectrum{i}: N({w:.6g}) = {n:.15g}, reference {want:.15g}")
        return problems, {"integrals_checked": len(self.cases) + len(self.weights),
                          "worst_error_over_tolerance": worst}


def _collapse_grid(kind):
    """Criterion 08's sweep: 5 d x 7 T x 8 tau, xi = |T - 1|^-1/2."""
    taus = np.geomspace(3.0, 300.0, 8) if kind == "A" else np.geomspace(10.0, 1e4, 8)
    rows = []
    for d in np.geomspace(1.0, 10.0, 5):
        for T in (0.80, 0.88, 0.94, 1.06, 1.12, 1.20, 1.30):
            xi = 1.0 / math.sqrt(abs(T - 1.0))
            m = (ModelA(gamma0=1.0, J=1.0, xi=xi, T=T) if kind == "A"
                 else ModelB(J=1.0, sigma_s=1.0, xi=xi, T=T))
            curve = noise.decoherence_curve(taus, PulseSequence.ramsey(1.0), m,
                                            GeometryConfig(d=d), tol_omega=1e-6)
            rows += [(d, t, T, p) for t, p in zip(curve.taus, curve.phi_sq)]
    d, t, T, p = map(np.array, zip(*rows))
    return SweepGrid(d=d, tau=t, T=T, phi_sq=p)


class Collapse:
    """classical_collapse fits on criterion-08 grids made by the engine."""

    name = "collapse"
    timed_kind = "fit"
    Z_TRUE = {"A": 2.0, "B": 4.0}
    # (grid, fit seed, bootstrap replicates); a fit's cost depends on its
    # start seed by up to 20x, so the list is fixed and the benchmark seed
    # only sets the order
    FITS = [("A", 1, 0), ("A", 2, 0), ("B", 5, 0), ("A", 2, 2)]

    def __init__(self, seed, workdir):
        shift = seed % len(self.FITS)
        self.fits = self.FITS[shift:] + self.FITS[:shift]

    def setup(self):
        self.grids = {k: _collapse_grid(k) for k in ("A", "B")}

    def _fit(self, kind, fit_seed, n_boot):
        z = self.Z_TRUE[kind]
        bounds = {"eta": (0.0, 0.0), "nu": (0.3, 0.8), "z": (z - 0.8, z + 0.8)}
        res = collapse.classical_collapse(self.grids[kind], bounds, fit_seed,
                                          n_starts=2, n_bootstrap=n_boot)
        return 1, res

    def ops(self, round_no):
        return [Op(f"fit-{k}-s{s}-b{b}", "fit", lambda c=(k, s, b): self._fit(*c))
                for k, s, b in self.fits]

    def check(self, done):
        problems = []
        for label, results in done.items():
            kind = label.split("-")[1]
            for r in results:
                bad = []
                if abs(r.nu - 0.5) > 0.1:
                    bad.append(f"nu={r.nu:.4f}")
                if abs(r.z - self.Z_TRUE[kind]) > 0.1:
                    bad.append(f"z={r.z:.4f}")
                if abs(r.critical_value - 1.0) > 0.02:
                    bad.append(f"T_c={r.critical_value:.5f}")
                if not r.converged or r.clamped:
                    bad.append(f"converged={r.converged} clamped={r.clamped}")
                if r.covariance is not None and not (
                        np.all(np.isfinite(r.covariance)) and np.all(np.diag(r.covariance) >= 0)):
                    bad.append("bootstrap covariance not finite and non-negative")
                if bad:
                    problems.append(f"{label}: " + ", ".join(bad))
        return problems, {"fits": [list(f) for f in self.fits],
                          "fits_checked": sum(len(v) for v in done.values())}


class Oracle:
    """Criterion 07's trace and estimate stages with fewer traces."""

    name = "oracle"
    timed_kind = "trace"
    SEED, D, TAU, DT = 20260816, 2.0, 4.0, 0.005
    FALSE_ALARM = 1e-9
    MODELS = {"a-far": {"kind": "model_a", "xi": 1.0},
              "a-crit": {"kind": "model_a", "xi": None},
              "b-far": {"kind": "model_b", "xi": 1.0}}
    # (model, L, traces per round); one L=128 trace has 4x the modes
    PLAN = [("a-far", 64, 6), ("a-crit", 64, 6), ("b-far", 64, 6), ("a-far", 128, 1)]

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        self.models = {k: ModelA(J=1.0, gamma0=1.0, xi=v["xi"] or math.inf, T=1.0)
                       if v["kind"] == "model_a" else
                       ModelB(J=1.0, sigma_s=1.0, xi=v["xi"] or math.inf, T=1.0)
                       for k, v in self.MODELS.items()}
        self.geom = GeometryConfig(d=self.D)
        self.lattices = {L: oracle.LatticeSpec(L=L) for L in (64, 128)}
        self.traces = {(m, L): [] for m, L, _ in self.PLAN}
        self.next_index = self.seed << 24
        oracle.simulate_field_trace(self.models["a-far"], self.geom, self.lattices[64],
                                    0.1, self.DT, self.SEED, trace_index=self.next_index)

    def _trace(self, key):
        self.next_index += 1
        tr = oracle.simulate_field_trace(self.models[key[0]], self.geom,
                                         self.lattices[key[1]], self.TAU, self.DT,
                                         self.SEED, trace_index=self.next_index)
        self.traces[key].append(tr)
        return 1, None

    def ops(self, round_no):
        return [Op(f"trace-{m}-L{L}", "trace", lambda k=(m, L): self._trace(k))
                for m, L, n in self.PLAN for _ in range(n)]

    def final_ops(self):
        ops = []
        for (m, L) in self.traces:
            for name in ("ramsey", "hahn"):
                seq = (PulseSequence.ramsey(self.TAU) if name == "ramsey"
                       else PulseSequence.hahn(self.TAU))
                key = f"{m}-L{L}-{name}"
                ops.append(Op(f"mc-{key}", "estimate", lambda k=(m, L), s=seq: (
                    0, (len(self.traces[k]), oracle.monte_carlo_phi_squared(self.traces[k], s)))))
                ops.append(Op(f"modesum-{key}", "estimate", lambda k=(m, L), s=seq: (
                    0, oracle.mode_sum_phi_squared(self.models[k[0]], self.geom,
                                                   self.lattices[k[1]], s))))
        return ops

    def check(self, done):
        problems, ratios = [], {}
        for label, vals in done.items():
            if not label.startswith("modesum-"):
                continue
            key = label[len("modesum-"):]
            m, rest = key.rsplit("-L", 1)
            L, name = rest.split("-")
            sw = ref.switch_times(name, self.TAU)
            want = ref.lattice_phi_squared(self.MODELS[m], self.D, int(L), sw, self.TAU)
            if abs(vals[0] / want - 1.0) > 1e-10:
                problems.append(f"{label}: {vals[0]:.15g}, lattice sum {want:.15g}")
            # phi is Gaussian, so n mean(phi^2)/<phi^2> is chi-square with n
            # degrees of freedom: accept the two-sided interval that a correct
            # estimator leaves with probability FALSE_ALARM
            for n, (mc, _) in done.get("mc-" + key, []):
                lo, hi = (chi2.ppf(self.FALSE_ALARM / 2, n) / n,
                          chi2.isf(self.FALSE_ALARM / 2, n) / n)
                ratios[key] = mc / want
                if not lo <= mc / want <= hi:
                    problems.append(f"mc-{key}: {mc:.6g} / {want:.6g} = {mc / want:.4f} "
                                    f"outside [{lo:.4f}, {hi:.4f}] ({n} traces)")
        return problems, {"oracle_seed": self.SEED, "first_trace_index": (self.seed << 24) + 1,
                          "traces": {f"{m}-L{L}": len(v) for (m, L), v in self.traces.items()},
                          "mc_over_mode_sum": ratios}


WORKLOADS = {w.name: w for w in (Curves, Spectra, Collapse, Oracle)}
