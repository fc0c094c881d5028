"""Stochastic ground truth: exact Ornstein-Uhlenbeck simulation on rate shells.

At mean-field level every lattice Fourier mode of the order parameter is an
independent OU process with relaxation rate r_q and stationary variance
v_q = T chi(q).  The probe field is the kernel-weighted mode sum
    B(t) = (2 a pref / L) sum_q H_zz(q) phi_q(t) e^{i q . r_probe}.
Modes on one integer shell nx^2 + ny^2 share |q| and so r_q, and a sum of
independent OU processes with one rate is itself an OU process.  B is
therefore a sum of one OU process per shell, of variance g_s (the shell's
summed h_q^2 v_q weight, whatever the probe position), and the update
    x(t + dt) = x(t) e^{-r dt} + N(0, g (1 - e^{-2 r dt}))
is distributionally exact for any dt.  Its stationary statistics converge
to the continuum q-integrals used by the quadrature engine.  Oracle
comparisons replace the continuum integral with the same discrete mode sum
on both sides, so the test isolates the time integration of the phase
rather than lattice discretization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .filters import GeometryConfig, PulseSequence
from .models import as_lorentzian_model, lorentzian_parameters
from .noise import ou_phase_kernel

__all__ = [
    "LatticeSpec",
    "FieldTrace",
    "simulate_field_trace",
    "monte_carlo_phi_squared",
    "mode_sum_phi_squared",
    "mode_sum_noise_density",
    "stationary_b_variance",
]

MODE_CAP = 1 << 22  # largest L^2 a LatticeSpec accepts; bounds the shell table's memory


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic L x L lattice with spacing a; modes q = 2 pi n/(L a)."""

    L: int
    a: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.L, int) and self.L >= 4 and self.L % 2 == 0):
            raise ValueError("L must be an even integer >= 4")
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError("a must be positive and finite")
        if self.L * self.L > MODE_CAP:
            raise ValueError(f"L^2 = {self.L**2} exceeds the mode cap {MODE_CAP}")
        if self.L < 16:
            warnings.warn("L < 16 is below the intended oracle size; "
                          "finite-size effects will be large", stacklevel=2)


@dataclass
class FieldTrace:
    """Probe-field samples B(i dt), i = 0..n-1, from one stochastic run."""

    dt: float
    samples: np.ndarray
    seed: int
    provenance: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.dt * (self.samples.size - 1)


def _shells(model, geom: GeometryConfig, lattice: LatticeSpec):
    """Per-shell (g_s, r_s) of the probe-field mode sum, q = 0 excluded.

    A shell is the set of full-grid modes with one value of nx^2 + ny^2; they
    share |q| and so r_q, and their independent OU amplitudes add to one OU
    process of variance g_s = (number of modes) (2 a pref/L)^2 h_q^2 T chi_q,
    with h_q the layer-summed zz kernel.  The probe phase drops out of g_s.
    """
    m = as_lorentzian_model(model)
    L, a = lattice.L, lattice.a
    n2 = (np.arange(L) - L // 2) ** 2  # squares of the mode numbers in [-L/2, L/2)
    mult = np.bincount((n2[:, None] + n2[None, :]).ravel())
    shell = np.flatnonzero(mult)[1:]
    q = 2.0 * math.pi * np.sqrt(shell) / (L * a)
    # independent layers add in variance
    h2 = np.sum((q * np.exp(-np.outer(geom.depths, q)) / (2.0 * a**2)) ** 2, axis=0)
    chi, r = lorentzian_parameters(m, q)
    c0 = 2.0 * a * geom.field_prefactor / L
    return mult[shell] * c0**2 * h2 * (m.T * chi), r


def simulate_field_trace(model, geom: GeometryConfig, lattice: LatticeSpec,
                         duration: float, dt: float, seed: int, *,
                         trace_index: int = 0) -> FieldTrace:
    """One stationary probe-field trace B(t), t = 0, dt, ..., >= duration.

    Each rate shell starts in its stationary distribution and evolves by the
    exact OU update; B is the sum over shells.  The counter-based generator
    is keyed by (seed, trace_index) with a fixed draw order, so traces are
    reproducible individually and independent across indices.
    """
    if not (duration > 0.0 and dt > 0.0):
        raise ValueError("duration and dt must be positive")
    m = as_lorentzian_model(model)
    n_steps = int(math.ceil(duration / dt)) + 1
    g, r = _shells(m, geom, lattice)
    prov = {"model": repr(model), "L": lattice.L, "a": lattice.a,
            "trace_index": trace_index, "n_modes": lattice.L**2 - 1,
            "n_shells": g.size}

    if m.T == 0.0:
        return FieldTrace(dt=dt, samples=np.zeros(n_steps), seed=seed, provenance=prov)

    rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1),
                                                    trace_index & (2**64 - 1)]))
    decay = np.exp(-r * dt)
    step_std = np.sqrt(g * (-np.expm1(-2.0 * r * dt)))

    values = np.sqrt(g) * rng.standard_normal(g.size)
    b = np.empty(n_steps)
    b[0] = values.sum()
    i = 1
    block = 1024
    while i < n_steps:
        nb = min(block, n_steps - i)
        # row k becomes the shell values at step i + k
        x = rng.standard_normal((nb, g.size))
        x *= step_std
        x[0] += values * decay
        for k in range(1, nb):
            x[k] += x[k - 1] * decay
        b[i:i + nb] = x.sum(axis=1)
        values = x[-1]
        i += nb
    return FieldTrace(dt=dt, samples=b, seed=seed, provenance=prov)


def _switch_indices(seq: PulseSequence, dt: float, n_used: int, tau: float):
    """Grid indices of the sign flips; error if they miss the grid."""
    switches = np.asarray(seq.switches(), dtype=float)
    idx = np.rint(switches / dt).astype(int)
    if switches.size == 0:
        return idx
    if np.max(np.abs(idx * dt - switches)) > 1e-9 * tau:
        raise ValueError("sequence switch times must land on the trace grid; "
                         "choose dt = tau/(2 N m) for integer m")
    if np.any(idx <= 0) or np.any(idx >= n_used - 1):
        raise ValueError("switch times fall outside the usable trace interior")
    return idx


def monte_carlo_phi_squared(traces, seq: PulseSequence):
    """Sample mean and standard error of phi^2 over stochastic traces.

    phi = kappa int_0^tau f(t) B(t) dt by trapezoid with the toggling sign
    (zero exactly at switch instants, which must lie on the sample grid).
    """
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    tau = seq.tau
    phis = np.empty(len(traces))
    for t_i, tr in enumerate(traces):
        dt = tr.dt
        n_used = int(round(tau / dt)) + 1
        if abs((n_used - 1) * dt - tau) > 1e-9 * tau:
            raise ValueError("tau must be an integer number of trace steps")
        if tr.duration < tau - 1e-9 * tau:
            raise ValueError(f"trace covers {tr.duration:.6g} < tau = {tau:.6g}")
        n_pulses = max(1, seq.switches().size)
        if dt > tau / (20.0 * n_pulses) * (1.0 + 1e-12):
            raise ValueError("dt too coarse to resolve the pulse sequence: "
                             f"need dt <= tau/{20 * n_pulses}")
        sgn = np.ones(n_used)
        flip = _switch_indices(seq, dt, n_used, tau)
        for j, ix in enumerate(flip):
            sgn[ix:] = 1.0 if j % 2 else -1.0
            sgn[ix] = 0.0
        w = np.full(n_used, dt)
        w[0] = w[-1] = 0.5 * dt
        phis[t_i] = seq.kappa * np.sum(w * sgn * tr.samples[:n_used])
    ph2 = phis**2
    mean = float(ph2.mean())
    stderr = float(ph2.std(ddof=1) / math.sqrt(len(traces))) if len(traces) > 1 else 0.0
    return mean, stderr


def mode_sum_phi_squared(model, geom: GeometryConfig, lattice: LatticeSpec,
                         seq: PulseSequence) -> float:
    """Exact expectation of the MC estimator's continuum-time counterpart.

    <phi^2> = kappa^2 sum_s g_s Q(r_s) with the OU double integral Q of
    noise.ou_phase_kernel; this is the discrete-lattice analog of the
    engine's q-integral and the reference the Monte Carlo runs are tested
    against.
    """
    g, r = _shells(model, geom, lattice)
    q_vals = ou_phase_kernel(r, seq)[:, 0]
    return float(seq.kappa**2 * np.sum(g * q_vals))


def mode_sum_noise_density(model, geom: GeometryConfig, lattice: LatticeSpec,
                           omegas) -> np.ndarray:
    """Discrete-lattice N(omega): sum_s 2 g_s r_s/(r_s^2 + omega^2)."""
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
    g, r = _shells(model, geom, lattice)
    out = 2.0 * (g * r) @ (1.0 / (r[:, None] ** 2 + w[None, :] ** 2))
    return out if np.ndim(omegas) else float(out[0])


def stationary_b_variance(model, geom: GeometryConfig, lattice: LatticeSpec) -> float:
    """<B^2> of the discrete mode sum (continuum limit: int dq/2pi W_d T chi)."""
    g, _ = _shells(model, geom, lattice)
    return float(np.sum(g))
