"""Stochastic ground truth: exact per-mode Ornstein-Uhlenbeck simulation.

At mean-field level every lattice Fourier mode of the order parameter is an
independent OU process with relaxation rate r_q and stationary variance
v_q = T chi(q), so the update
    phi(t + dt) = phi(t) e^{-r dt} + N(0, v (1 - e^{-2 r dt}))
is distributionally exact for any dt.  The probe field is the kernel-
weighted mode sum
    B(t) = (2 a pref / L) sum_q H_zz(q) phi_q(t) e^{i q . r_probe},
whose stationary statistics converge to the continuum q-integrals used by
the quadrature engine.  Oracle comparisons replace the continuum integral
with the same discrete mode sum on both sides, so the test isolates the
time integration of the phase rather than lattice discretization.
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
    "ou_mode_step",
    "simulate_field_trace",
    "monte_carlo_phi_squared",
    "mode_sum_phi_squared",
    "mode_sum_noise_density",
    "stationary_b_variance",
]


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic L x L lattice with spacing a; modes q = 2 pi n/(L a)."""

    L: int
    a: float = 1.0
    mode_cap: int = 1 << 22

    def __post_init__(self):
        if not (isinstance(self.L, int) and self.L >= 4 and self.L % 2 == 0):
            raise ValueError("L must be an even integer >= 4")
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError("a must be positive and finite")
        if self.L * self.L > self.mode_cap:
            raise ValueError(f"L^2 = {self.L**2} exceeds the mode cap {self.mode_cap}")
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


def ou_mode_step(value, r_q, v_q, dt, rng):
    """Exact OU update over one step of length dt.

    Exact for any dt: the conditional law of the OU process.  r_q = 0
    (conserved q = 0 mode) leaves the value frozen; dt -> inf samples the
    stationary distribution outright.
    """
    r = np.asarray(r_q, dtype=float)
    v = np.asarray(v_q, dtype=float)
    if np.any(r < 0.0) or np.any(v < 0.0):
        raise ValueError("relaxation rate and variance must be non-negative")
    decay = np.exp(-r * dt)
    noise_var = v * (-np.expm1(-2.0 * r * dt))
    return value * decay + rng.standard_normal(np.shape(value)) * np.sqrt(noise_var)


class _ModeSet:
    """Half-grid mode bookkeeping for a real field on the periodic lattice.

    Modes with q = -q (mod G) are real with variance v_q; all others are
    kept once with complex amplitude (two components of variance v_q/2).
    """

    def __init__(self, lattice: LatticeSpec, geom: GeometryConfig, probe_site=(0, 0)):
        L, a = lattice.L, lattice.a
        n = np.arange(L) - L // 2  # integer mode numbers in [-L/2, L/2)
        nx, ny = np.meshgrid(n, n, indexing="ij")
        nx = nx.ravel()
        ny = ny.ravel()
        on_axis_x = (nx == 0) | (nx == -L // 2)
        on_axis_y = (ny == 0) | (ny == -L // 2)
        self_conj = on_axis_x & on_axis_y
        half = (ny > 0) | (((ny == 0) | (ny == -L // 2)) & (nx > 0))

        qx = 2.0 * math.pi * nx / (L * a)
        qy = 2.0 * math.pi * ny / (L * a)
        qn = np.hypot(qx, qy)

        # layer-summed zz kernel weight; independent layers add in variance
        def h_eff(qnorm):
            h2 = np.zeros_like(qnorm)
            for dl in geom.depths:
                h2 += (qnorm * np.exp(-qnorm * dl) / (2.0 * a**2)) ** 2
            return np.sqrt(h2)

        rx, ry = probe_site
        phase = qx * (rx * a) + qy * (ry * a)
        c0 = 2.0 * a * geom.field_prefactor / L

        hh = h_eff(qn)
        keep_half = half & (qn > 0.0)
        keep_self = self_conj & (qn > 0.0)
        self.q_half = qn[keep_half]
        self.q_self = qn[keep_self]
        # weights mapping mode components to the probe field:
        # complex mode -> 2 h Re(phi e^{i theta}) = 2h (x cos - y sin)
        self.w_half_x = c0 * 2.0 * hh[keep_half] * np.cos(phase[keep_half])
        self.w_half_y = -c0 * 2.0 * hh[keep_half] * np.sin(phase[keep_half])
        self.w_self = c0 * hh[keep_self] * np.cos(phase[keep_self])
        self.n_half = self.q_half.size
        self.n_self = self.q_self.size

    def rates_and_vars(self, model):
        m = as_lorentzian_model(model)
        chi_h, r_h = lorentzian_parameters(m, self.q_half)
        chi_s, r_s = lorentzian_parameters(m, self.q_self)
        v_h = m.T * chi_h
        v_s = m.T * chi_s
        # component layout: [half_x, half_y, self]
        r = np.concatenate([r_h, r_h, r_s])
        var = np.concatenate([0.5 * v_h, 0.5 * v_h, v_s])
        w = np.concatenate([self.w_half_x, self.w_half_y, self.w_self])
        return r, var, w

    def weights_squared_vars(self, model):
        """Per-q aggregate (C/L)^2 h^2 v with half-mode multiplicity."""
        m = as_lorentzian_model(model)
        chi_h, r_h = lorentzian_parameters(m, self.q_half)
        chi_s, r_s = lorentzian_parameters(m, self.q_self)
        g_h = (self.w_half_x**2 + self.w_half_y**2) * 0.5 * (m.T * chi_h)
        g_s = self.w_self**2 * (m.T * chi_s)
        return np.concatenate([g_h, g_s]), np.concatenate([r_h, r_s])


def simulate_field_trace(model, geom: GeometryConfig, lattice: LatticeSpec,
                         duration: float, dt: float, seed: int, *,
                         trace_index: int = 0, probe_site=(0, 0)) -> FieldTrace:
    """One stationary probe-field trace B(t), t = 0, dt, ..., >= duration.

    Modes start in their stationary distribution and evolve by the exact
    OU update.  The counter-based generator is keyed by (seed, trace_index)
    with a fixed draw order, so traces are reproducible individually and
    independent across indices.
    """
    if not (duration > 0.0 and dt > 0.0):
        raise ValueError("duration and dt must be positive")
    m = as_lorentzian_model(model)
    n_steps = int(math.ceil(duration / dt)) + 1
    modes = _ModeSet(lattice, geom, probe_site)
    r, var, w = modes.rates_and_vars(m)
    prov = {"model": repr(model), "L": lattice.L, "a": lattice.a,
            "trace_index": trace_index, "probe_site": tuple(probe_site),
            "n_modes": modes.n_half + modes.n_self}

    if m.T == 0.0:
        return FieldTrace(dt=dt, samples=np.zeros(n_steps), seed=seed, provenance=prov)

    rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1),
                                                    trace_index & (2**64 - 1)]))
    std0 = np.sqrt(var)
    decay = np.exp(-r * dt)
    step_std = np.sqrt(var * (-np.expm1(-2.0 * r * dt)))

    values = std0 * rng.standard_normal(r.size)
    b = np.empty(n_steps)
    b[0] = values @ w
    i = 1
    block = 1024
    while i < n_steps:
        nb = min(block, n_steps - i)
        noise = rng.standard_normal((nb, r.size))
        for k in range(nb):
            values = values * decay + step_std * noise[k]
            b[i + k] = values @ w
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

    <phi^2> = kappa^2 sum_q (C/L)^2 h_q^2 v_q Q(r_q) with the OU double
    integral Q of noise.ou_phase_kernel; this is the discrete-lattice analog
    of the engine's q-integral and the reference the Monte Carlo runs are
    tested against.
    """
    modes = _ModeSet(lattice, geom)
    g, r = modes.weights_squared_vars(model)
    q_vals = ou_phase_kernel(r, seq)[:, 0]
    return float(seq.kappa**2 * np.sum(g * q_vals))


def mode_sum_noise_density(model, geom: GeometryConfig, lattice: LatticeSpec,
                           omegas) -> np.ndarray:
    """Discrete-lattice N(omega): sum_q (C/L)^2 h_q^2 2 v_q r_q/(r_q^2+omega^2)."""
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
    modes = _ModeSet(lattice, geom)
    g, r = modes.weights_squared_vars(model)
    out = 2.0 * (g * r) @ (1.0 / (r[:, None] ** 2 + w[None, :] ** 2))
    return out if np.ndim(omegas) else float(out[0])


def stationary_b_variance(model, geom: GeometryConfig, lattice: LatticeSpec) -> float:
    """<B^2> of the discrete mode sum (continuum limit: int dq/2pi W_d T chi)."""
    modes = _ModeSet(lattice, geom)
    g, _ = modes.weights_squared_vars(model)
    return float(np.sum(g))
