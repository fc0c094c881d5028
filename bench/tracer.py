"""Span tracer that wraps critspec's public functions from outside.

Each traced function is replaced, in every critspec module that binds it
(``integrate`` is bound in both ``quadrature`` and ``noise``), by a wrapper
that records a span: name, start, end, parent span and the operation (one
curve, integral, fit or trace) it belongs to.  Work counters are read from
arguments and public return values.  Spans stay in memory and are written
out once, when the run ends.  The program itself is not changed.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


def _integrate_work(args, kwargs, result):
    info = result[2]
    return {"n_eval": info["n_eval"], "n_panels": info["n_panels"]}


# (module, function) -> counters read from (args, kwargs, result)
TRACED = {
    ("quadrature", "integrate"): _integrate_work,
    ("filters", "filter_function"): lambda a, k, r: {"points": _size(a[0])},
    ("filters", "momentum_filter"): lambda a, k, r: {"points": _size(a[0])},
    ("models", "lorentzian_parameters"): lambda a, k, r: {"points": _size(a[1])},
    ("noise", "decoherence_curve"): None,
    ("noise", "phi_squared"): None,
    ("noise", "noise_spectral_density"): lambda a, k, r: {"points": _size(a[0])},
    ("noise", "t2_extract"): None,
    ("cli", "main"): None,
    ("collapse", "classical_collapse"): None,
    ("collapse", "collapse_quality"): None,
    ("oracle", "simulate_field_trace"): lambda a, k, r: {"samples": _size(r.samples)},
    ("oracle", "monte_carlo_phi_squared"): None,
    ("oracle", "mode_sum_phi_squared"): None,
}

# per-layer metrics reported by a traced run: (name, unit)
PER_LAYER = [
    ("quadrature.integrate.calls", "count"), ("quadrature.integrate.n_eval", "count"),
    ("quadrature.integrate.n_panels", "count"), ("quadrature.integrate.self_s", "s"),
    ("filters.filter_function.calls", "count"), ("filters.filter_function.points", "count"),
    ("filters.filter_function.self_s", "s"),
    ("filters.momentum_filter.points", "count"), ("filters.momentum_filter.self_s", "s"),
    ("models.lorentzian_parameters.points", "count"),
    ("models.lorentzian_parameters.self_s", "s"),
    ("noise.decoherence_curve.calls", "count"), ("noise.decoherence_curve.self_s", "s"),
    ("noise.phi_squared.calls", "count"), ("noise.phi_squared.self_s", "s"),
    ("noise.noise_spectral_density.calls", "count"),
    ("noise.noise_spectral_density.points", "count"),
    ("noise.noise_spectral_density.self_s", "s"),
    ("noise.t2_extract.calls", "count"), ("noise.t2_extract.self_s", "s"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("collapse.classical_collapse.calls", "count"),
    ("collapse.classical_collapse.self_s", "s"),
    ("collapse.collapse_quality.calls", "count"), ("collapse.collapse_quality.self_s", "s"),
    ("collapse.collapse_quality.p50_us", "us"),
    ("oracle.simulate_field_trace.calls", "count"),
    ("oracle.simulate_field_trace.samples", "count"),
    ("oracle.simulate_field_trace.self_s", "s"),
    ("oracle.monte_carlo_phi_squared.self_s", "s"),
    ("oracle.mode_sum_phi_squared.self_s", "s"),
    ("tracer.spans", "count"), ("tracer.overhead_s", "s"), ("tracer.wall_s", "s"),
]


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.names = []          # span name per span
        self.parent = []         # parent span index, -1 at the top
        self.op = []             # operation id per span
        self.start = []
        self.end = []
        self.counts = {}         # "module.function.counter" -> total
        self._stack = []
        self._op_id = -1
        self._undo = []

    def set_op(self, op_id: int):
        """Spans started from now on belong to operation op_id."""
        self._op_id = op_id

    def _wrap(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(tracer.start)
            tracer.names.append(name)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer._op_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(i)
            tracer.start[i] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = time.perf_counter()
                tracer._stack.pop()
            if work is not None:
                for key, val in work(args, kwargs, result).items():
                    k = f"{name}.{key}"
                    tracer.counts[k] = tracer.counts.get(k, 0) + int(val)
            return result

        return wrapper

    def install(self):
        """Wrap every traced function wherever a critspec module binds it."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "critspec" or n.startswith("critspec.")}
        for (home, fname), work in TRACED.items():
            original = getattr(mods[f"critspec.{home}"], fname)
            wrapper = self._wrap(f"{home}.{fname}", original, work)
            for mod in mods.values():
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, wrapper)
                    self._undo.append((mod, fname, original))

    def uninstall(self):
        for mod, fname, original in reversed(self._undo):
            setattr(mod, fname, original)
        self._undo.clear()

    def per_span_cost(self, n: int = 20000) -> float:
        """Seconds one wrapper adds to a call, timed on a no-op function."""
        probe = Tracer()
        fn = probe._wrap("probe", lambda: None, None)
        bare = lambda: None
        t0 = time.perf_counter()
        for _ in range(n):
            bare()
        t1 = time.perf_counter()
        for _ in range(n):
            fn()
        t2 = time.perf_counter()
        return max((t2 - t1) - (t1 - t0), 0.0) / n

    def self_times(self) -> np.ndarray:
        """Span duration minus the time covered by its direct children."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        self_t = dur.copy()
        parent = np.asarray(self.parent, dtype=np.int64)
        has = parent >= 0
        np.subtract.at(self_t, parent[has], dur[has])
        return self_t

    def layer_metrics(self, rounds: int) -> dict:
        """Per round of the workload: calls, self seconds and work counters
        of each function, plus the median call time of collapse_quality."""
        out = {k: v / rounds for k, v in self.counts.items()}
        names = np.asarray(self.names)
        self_t = self.self_times()
        dur = np.asarray(self.end) - np.asarray(self.start)
        for home, fname in TRACED:
            name = f"{home}.{fname}"
            sel = names == name
            out[f"{name}.calls"] = int(sel.sum()) / rounds
            out[f"{name}.self_s"] = float(self_t[sel].sum()) / rounds
            if name == "collapse.collapse_quality":
                out[f"{name}.p50_us"] = (statistics.median(dur[sel]) * 1e6
                                         if sel.any() else 0.0)
        return out

    def save(self, path):
        """Write every span as parallel arrays (compressed .npz)."""
        labels = sorted(set(self.names))
        index = {n: i for i, n in enumerate(labels)}
        np.savez_compressed(
            path, labels=np.asarray(labels),
            name=np.asarray([index[n] for n in self.names], dtype=np.int16),
            parent=np.asarray(self.parent, dtype=np.int64),
            op=np.asarray(self.op, dtype=np.int64),
            start=np.asarray(self.start), end=np.asarray(self.end),
            self_s=self.self_times())
