r"""Dephasing filter functions and the magnetostatic momentum filter.

A probe qubit at height d above a two-dimensional magnet accumulates phase
under a toggling sign function f(t) set by its pulse sequence.  Downstream
code needs the sign-flip schedule of f (the time-domain kernel in noise.py),
the momentum filter W_d(q) picked out by the dipolar kernel of the 2D layer
and, for explicit noise spectra, the frequency filter
W_tau(omega) = kappa^2 |\int_0^tau f(t) e^{-i omega t} dt|^2.

filter_function is one segment sum for every sequence kind.  The omega
path (noise.py) calls it only on refinement nodes and custom sequences:
Ramsey and CPMG read their first-round lobes from a one-period table of
omega^2 W, one FFT of the jump train of jump_weights.

Natural units throughout (hbar = k_B = 1, lattice constant a = 1, coupling
kappa = 1 unless configured otherwise); SI conversions live in materials.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PulseSequence",
    "GeometryConfig",
    "filter_function",
    "cpmg_delta_comb",
    "comb_tail_bound",
    "momentum_filter",
    "jump_weights",
]


def _scalar_like(out, ref):
    if np.ndim(ref) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class PulseSequence:
    """Pi-pulse schedule of a dephasing experiment.

    kind is one of 'ramsey', 'cpmg', 'custom'.  tau is the total free
    evolution time and kappa = gamma/(2 hbar) the phase coupling constant.
    CPMG uses the symmetric timing t_n = tau (n - 1/2)/N, n = 1..N, so
    cpmg(1, tau) is the Hahn echo.  Custom sequences list their sign-flip
    instants directly; they must be strictly increasing inside (0, tau).
    """

    kind: str
    tau: float
    kappa: float = 1.0
    n_pulses: int = 0
    switch_times: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("ramsey", "cpmg", "custom"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError("tau must be finite and positive")
        if not (math.isfinite(self.kappa) and self.kappa >= 0.0):
            raise ValueError("kappa must be finite and non-negative")
        if self.kind == "cpmg":
            if self.n_pulses < 1:
                raise ValueError("cpmg needs at least one pi pulse")
        if self.kind == "custom":
            ts = np.asarray(self.switch_times, dtype=float)
            if ts.size == 0:
                raise ValueError("custom sequence needs switch times")
            if not np.all(np.isfinite(ts)):
                raise ValueError("switch times must be finite")
            if np.any(ts <= 0.0) or np.any(ts >= self.tau):
                raise ValueError("switch times must lie strictly inside (0, tau)")
            if np.any(np.diff(ts) <= 0.0):
                raise ValueError("switch times must be strictly increasing")

    @classmethod
    def ramsey(cls, tau: float, kappa: float = 1.0) -> "PulseSequence":
        return cls("ramsey", tau, kappa)

    @classmethod
    def cpmg(cls, n_pulses: int, tau: float, kappa: float = 1.0) -> "PulseSequence":
        return cls("cpmg", tau, kappa, n_pulses=int(n_pulses))

    @classmethod
    def hahn(cls, tau: float, kappa: float = 1.0) -> "PulseSequence":
        return cls.cpmg(1, tau, kappa)

    @classmethod
    def custom(cls, switch_times, tau: float, kappa: float = 1.0) -> "PulseSequence":
        return cls("custom", tau, kappa, switch_times=tuple(float(t) for t in switch_times))

    def switches(self) -> np.ndarray:
        """Sign-flip instants in (0, tau), for any kind."""
        if self.kind == "ramsey":
            return np.empty(0)
        if self.kind == "cpmg":
            n = np.arange(1, self.n_pulses + 1)
            return self.tau * (n - 0.5) / self.n_pulses
        return np.asarray(self.switch_times, dtype=float)

    @cached_property
    def runs(self) -> tuple:
        """((segment length/tau, count), ...), one pair per run of equal consecutive segments.

        Built on first use and kept: the OU kernel steps over runs, not
        segments, and a T2 search calls it again for every tau it tries.
        """
        fracs = np.diff(np.concatenate(([0.0], self.switches(), [self.tau])) / self.tau)
        # a run ends where a segment differs from the one before it by more than rounding
        starts = [0, *(np.flatnonzero(np.abs(np.diff(fracs)) > 1e-12 * fracs[1:]) + 1).tolist(),
                  fracs.size]
        return tuple((float(fracs[i]), j - i) for i, j in zip(starts, starts[1:]))


@dataclass(frozen=True)
class GeometryConfig:
    """Probe-sample geometry: height d and layer stack, in units of the lattice constant.

    layer_offsets are depths of additional layers relative to the first,
    so the physical heights are d + offset for each entry; the default is
    a single layer at d.  field_prefactor is mu0 mu_B g_s S/(2 a^2) in the
    working units (1.0 in natural units; see materials.field_prefactor_si).
    """

    d: float
    layer_offsets: tuple[float, ...] = (0.0,)
    field_prefactor: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d > 0.0):
            raise ValueError("probe height d must be positive and finite")
        offs = np.asarray(self.layer_offsets, dtype=float)
        if offs.size == 0 or np.any(offs < 0.0) or not np.all(np.isfinite(offs)):
            raise ValueError("layer offsets must be finite and non-negative")
        if not (math.isfinite(self.field_prefactor) and self.field_prefactor > 0.0):
            raise ValueError("field prefactor must be positive")

    @property
    def depths(self) -> np.ndarray:
        return self.d + np.asarray(self.layer_offsets, dtype=float)


def filter_function(omega, seq: PulseSequence):
    """W_tau(omega) of any sequence as a sum over its constant-sign segments.

    Each segment [a, b] of sign s contributes
    s (b - a) sinc(omega (b-a)/2) e^{-i omega (a+b)/2} to the transform;
    the filter is kappa^2 |sum of segments|^2.  The sinc form has no
    singularities, so it holds at omega = 0 (kappa^2 tau^2 for Ramsey) and
    at the odd harmonics of pi N/tau where the CPMG closed form is 0/0.
    """
    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("filter frequency must be finite")
    edges = np.concatenate(([0.0], seq.switches(), [seq.tau]))
    signs = (-1.0) ** np.arange(edges.size - 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    wf = w.reshape(w.shape + (1,))
    segments = (2.0 * signs * half) * np.sinc(wf * half / math.pi) * np.exp(-1j * wf * mid)
    amp = segments.sum(axis=-1)
    out = seq.kappa**2 * (amp.real**2 + amp.imag**2)
    return _scalar_like(out, omega)


def cpmg_delta_comb(seq: PulseSequence, n_max: int):
    """Large-N CPMG filter as a comb of delta weights at odd harmonics.

    Returns (omega_n, weights) for n = 0..n_max-1 with omega_n = (2n+1) omega_p,
    omega_p = pi N/tau, and weight tau (gamma/hbar)^2 (2/pi)/(2n+1)^2
    = 8 kappa^2 tau / (pi (2n+1)^2).  The weights are one-sided: their full
    sum equals pi kappa^2 tau, the omega > 0 half of the exact filter's
    integrated weight; the omega < 0 mirror carries the other half.
    Truncation error of the sum is bounded by comb_tail_bound.
    """
    if seq.kind != "cpmg" or seq.n_pulses < 1:
        raise ValueError("delta comb is defined for cpmg sequences")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    n = np.arange(n_max)
    omega_p = math.pi * seq.n_pulses / seq.tau
    omegas = (2 * n + 1) * omega_p
    weights = 8.0 * seq.kappa**2 * seq.tau / (math.pi * (2 * n + 1.0) ** 2)
    return omegas, weights


def comb_tail_bound(seq: PulseSequence, n_max: int) -> float:
    """Upper bound on the weight dropped by truncating the comb at n_max.

    sum_{n >= n_max} (2n+1)^{-2} < 1/(4 n_max), by integral comparison.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return 8.0 * seq.kappa**2 * seq.tau / math.pi * 0.25 / n_max


def jump_weights(seq: PulseSequence):
    r"""Jump times and magnitudes of the sign function, boundaries included.

    The transform obeys \int f e^{-i omega t} dt = (1/ i omega) sum_k J_k
    e^{-i omega u_k} at omega != 0, so sum J_k^2 fixes the exact 1/omega^2
    envelope of the filter's high-frequency average; used for tail formulas.
    """
    sw = seq.switches()
    times = np.concatenate(([0.0], sw, [seq.tau]))
    jumps = np.concatenate(([1.0], -2.0 * (-1.0) ** np.arange(sw.size), [(-1.0) ** (sw.size + 1)]))
    return times, jumps


def momentum_filter(q, geom: GeometryConfig):
    """Momentum filter W_d(q) = prefactor^2 q^3 sum_layers e^{-2 q depth}.

    Peaks at q = 3/(2d) for a single layer; integrates to
    prefactor^2 3/(8 d^4) per layer.
    """
    qq = np.asarray(q, dtype=float)
    depths = geom.depths
    damp = np.exp(-2.0 * np.multiply.outer(qq, depths)).sum(axis=-1)
    out = geom.field_prefactor**2 * qq**3 * damp
    return _scalar_like(out, q)

