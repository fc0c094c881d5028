r"""Noise spectral density, decoherence curves, and T2 extraction.

Every sample model is a set of independent Lorentzian (Ornstein-Uhlenbeck)
modes (models.py), so the phase variance of a model is one q-integral of a
closed-form time kernel, the filter-function result in the time domain:

    <phi^2>(tau) = kappa^2 \int_0^inf dq/(2pi) W_d(q) T chi_q Q(r_q; tau),
    Q(r; tau)    = \int_0^tau \int_0^tau f(t) f(t') e^{-r|t-t'|} dt dt'.

ou_phase_kernel evaluates Q in closed form, one step per run of equal
segments of the pulse sequence; phi_squared and decoherence_curve integrate
it over q with every tau as one component of an adaptive quadrature call
(up to 16 taus per call).  The oracle's lattice mode sums use the same kernel.
N(omega) is the same q-integral with the kernel 2 r/(r^2 + omega^2).

The frequency-domain route <phi^2> = \int domega/(2pi) W_tau(omega) N(omega)
serves explicit spectrum callables: blocks of lobes (width pi/tau), each
one adaptive quadrature call, and a smooth 1/omega^2-envelope tail
continuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.special import sici

from .filters import (GeometryConfig, PulseSequence, filter_function,
                      jump_weights, momentum_filter)
from .models import ModelA, ModelB, as_lorentzian_model, lorentzian_parameters
from .quadrature import QuadratureError, integrate, log_edges

__all__ = [
    "QubitParams",
    "NoiseSpectrum",
    "DecoherenceCurve",
    "NoCrossingError",
    "noise_spectral_density",
    "sample_noise_spectrum",
    "ou_phase_kernel",
    "phi_squared",
    "decoherence_curve",
    "coherence",
    "t2_extract",
    "cpmg_closed_form",
    "filter_weight_integral",
    "sequence_at",
]


@dataclass(frozen=True)
class QubitParams:
    """Probe qubit depolarization time T1; the coupling kappa lives on PulseSequence."""

    t1: float = math.inf

    def __post_init__(self):
        if not self.t1 > 0.0:
            raise ValueError("T1 must be positive (inf allowed)")


@dataclass
class NoiseSpectrum:
    """Tabulated N(omega) samples with quadrature tolerance and provenance."""

    omegas: np.ndarray
    densities: np.ndarray
    errors: np.ndarray
    tol_q: float
    provenance: dict = field(default_factory=dict)


@dataclass
class DecoherenceCurve:
    """<phi^2>(tau) samples with per-point error estimates and provenance.

    Keeps the sequence, model and geometry so t2_extract can refine roots
    on the continuous curve instead of interpolating samples.
    """

    taus: np.ndarray
    phi_sq: np.ndarray
    errors: np.ndarray
    seq: PulseSequence | None = None
    model: object | None = None
    geom: GeometryConfig | None = None
    provenance: dict = field(default_factory=dict)

    def evaluate(self, tau: float) -> float:
        """Continuous <phi^2>(tau) at the curve's tolerances."""
        if self.seq is None or self.model is None or self.geom is None:
            raise ValueError("curve carries no evaluator context")
        return phi_squared(tau, self.seq, self.model, self.geom,
                           tol_omega=self.provenance.get("tol_omega", 1e-6),
                           tol_q=self.provenance.get("tol_q", 1e-8))


class NoCrossingError(ValueError):
    """Curve does not span 2<phi^2> = 1; carries the end values."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


def sequence_at(seq: PulseSequence, tau: float) -> PulseSequence:
    """The same sequence shape rescaled to total time tau.

    Ramsey/CPMG keep their kind and pulse count; custom switch times are
    scaled by tau/seq.tau so the waveform shape is preserved.
    """
    if tau == seq.tau:
        return seq
    if seq.kind == "custom":
        scale = tau / seq.tau
        return PulseSequence.custom(scale * np.asarray(seq.switch_times), tau, seq.kappa)
    if seq.kind == "cpmg":
        return PulseSequence.cpmg(seq.n_pulses, tau, seq.kappa)
    return PulseSequence.ramsey(tau, seq.kappa)


def _is_critical_ab(model) -> bool:
    return isinstance(model, (ModelA, ModelB)) and math.isinf(model.xi)


def _resonance_q(model, omega: float) -> float | None:
    """Momentum where the mode relaxation rate crosses omega (if any)."""
    m = model
    if omega <= 0.0:
        return None
    if isinstance(m, ModelA):
        val = omega / (m.gamma0 * m.J) - m.inv_xi_sq
        return math.sqrt(val) if val > 0.0 else None
    if isinstance(m, ModelB):
        # sigma_s J q^2 (q^2 + xi^-2) = omega
        ix2 = m.inv_xi_sq
        q2 = 0.5 * (-ix2 + math.sqrt(ix2**2 + 4.0 * omega / (m.sigma_s * m.J)))
        return math.sqrt(q2) if q2 > 0.0 else None
    if hasattr(m, "D_s"):
        return math.sqrt(omega / m.D_s)
    if hasattr(m, "gamma_rate"):
        val = omega / m.gamma_rate - 1.0
        return math.sqrt(val) / m.xi if val > 0.0 else None
    return None


# panel edges of every q-integral, in units of 1/d_min: the momentum
# filter's scale
_Q_EDGES = (0.05, 0.2, 0.5, 1.0, 1.5, 2.5, 4.0, 8.0, 16.0)


def _q_integral(m, geom: GeometryConfig, pref: float, kernel, rates, rtol: float):
    r"""\int_0^{40/d_min} dq pref W_d(q) chi_q kernel(r_q), one component per kernel column.

    kernel maps the mode rates r_q (shape (n,)) to an (n, k) array.  W_d is
    suppressed by e^{-80} at q = 40/d_min.  Panel edges are the shared q/d
    set, 1/xi, and half, one and two times the q where r_q equals each of
    rates.  One integrate call; returns (values, errors, info).
    """
    d_min = float(np.min(geom.depths))
    edges = [x / d_min for x in _Q_EDGES]
    xi = getattr(m, "xi", math.inf)
    if math.isfinite(xi):
        edges.append(1.0 / xi)
    for rate in rates:
        qr = _resonance_q(m, rate)
        if qr is not None:
            edges += [0.5 * qr, qr, 2.0 * qr]

    def integrand(q):
        chi_q, r_q = lorentzian_parameters(m, q)
        return (pref * momentum_filter(q, geom) * chi_q)[:, None] * kernel(r_q)

    vals, errs, info = integrate(integrand, 0.0, 40.0 / d_min, rtol=rtol, edges=edges,
                                 max_panels=8192)
    return np.atleast_1d(vals), np.atleast_1d(errs), info


def noise_spectral_density(omega, model, geom: GeometryConfig, *,
                           tol_q: float = 1e-8, full_output: bool = False):
    r"""N(omega) = \int dq/2pi W_d(q) T chi_q 2 r_q/(r_q^2 + omega^2).

    One adaptive q-integral per decade of |omega|, every omega in the decade
    one component.  omega may be a scalar or an array; N is even in omega.
    At a critical point (xi = inf, Model A/B) the q-integral diverges at
    omega = 0 and inf is returned for that entry rather than a silently
    unconverged number.
    """
    m = as_lorentzian_model(model)
    w_in = np.abs(np.asarray(omega, dtype=float))
    if not np.all(np.isfinite(w_in)):
        raise ValueError("omega must be finite")
    w = np.atleast_1d(w_in)
    out = np.zeros(w.shape)
    err = np.zeros(w.shape)

    if m.T == 0.0:
        pass  # classical FDT: no fluctuations at T = 0
    else:
        div = (w == 0.0) & _is_critical_ab(m)
        out[div] = math.inf
        todo = ~div
        if np.any(todo):
            # chunk by decade so resonance breakpoints stay shared
            wt = w[todo]
            order = np.argsort(wt)
            dec = np.floor(np.log10(np.maximum(wt[order], 1e-300)))
            dec[wt[order] == 0.0] = -np.inf
            vals = np.empty(wt.shape)
            errs = np.empty(wt.shape)
            pref = m.T / (2.0 * math.pi)
            start = 0
            for i in range(1, wt.size + 1):
                if i == wt.size or dec[i] != dec[start]:
                    sel = order[start:i]
                    wc = wt[sel]

                    def lorentzian(r, wc=wc):
                        r = r[:, None]
                        return 2.0 * r / (r * r + wc * wc)

                    vals[sel], errs[sel], _ = _q_integral(
                        m, geom, pref, lorentzian, (wc.min(), wc.max()), tol_q)
                    start = i
            out[todo] = vals
            err[todo] = errs

    if np.ndim(omega) == 0:
        return (float(out[0]), float(err[0])) if full_output else float(out[0])
    out = out.reshape(w_in.shape)
    err = err.reshape(w_in.shape)
    return (out, err) if full_output else out


def sample_noise_spectrum(model, geom: GeometryConfig, omegas, *,
                          tol_q: float = 1e-8) -> NoiseSpectrum:
    """Tabulate N(omega) with per-point error estimates."""
    w = np.asarray(omegas, dtype=float)
    vals, errs = noise_spectral_density(w, model, geom, tol_q=tol_q, full_output=True)
    return NoiseSpectrum(omegas=w, densities=vals, errors=errs, tol_q=tol_q,
                         provenance={"model": repr(model), "geometry": repr(geom)})


def _runs(seq: PulseSequence) -> list:
    """[segment length / tau, count] for each run of equal consecutive segments."""
    if seq.kind == "ramsey":
        segments = [(1.0, 1)]
    elif seq.kind == "cpmg":
        n = seq.n_pulses
        segments = [(0.5 / n, 1), (1.0 / n, n - 1), (0.5 / n, 1)]
    else:
        edges = np.concatenate(([0.0], seq.switches(), [seq.tau])) / seq.tau
        segments = [(float(x), 1) for x in np.diff(edges)]
    runs = []
    for frac, k in segments:
        if k == 0:
            continue
        if runs and abs(runs[-1][0] - frac) <= 1e-12 * frac:
            runs[-1][1] += k
        else:
            runs.append([frac, k])
    return runs


# (x - 2 tanh(x/2))/x^2 = x/12 - x^3/120 + ..., taken below x = 0.1 where
# the direct difference loses digits; the first omitted term is 1e-15 of the
# sum there
_STEADY_SERIES = (1.0 / 12.0, -1.0 / 120.0, 17.0 / 20160.0, -31.0 / 362880.0,
                  691.0 / 79833600.0)


def ou_phase_kernel(rates, seq: PulseSequence, taus=None) -> np.ndarray:
    r"""Q(r; tau) = \int_0^tau \int_0^tau f(t) f(t') e^{-r|t-t'|} dt dt'.

    f is the toggling sign of seq rescaled to each total time in taus
    (default seq.tau).  rates are mode relaxation rates r >= 0.  Returns
    an array of shape (rates.size, taus.size).

    One pass over runs of equal consecutive segments.  The carried
    amplitude u (earlier segments' weight e^{-r(t - t')}, signed relative
    to the current segment) obeys u <- -e u - a over a segment of length
    l, with e = e^{-r l} and a = (1 - e)/r, and the segment adds
    2 (r l - 1 + e)/r^2 + 2 a u.  Over a run of k segments u relaxes
    geometrically to u* = -tanh(r l/2)/r, so the run adds in closed form
        k (2/r^2)(r l - 2 tanh(r l/2)) + 2 a (u - u*) (1 - (-e)^k)/(1 + e)
    and leaves u = u* + (-e)^k (u - u*).  The cost is O(runs) per mode:
    one run for Ramsey, three for CPMG-N.
    """
    r = np.asarray(rates, dtype=float).reshape(-1, 1)
    t = np.asarray(seq.tau if taus is None else taus, dtype=float).reshape(1, -1)
    out = np.zeros((r.shape[0], t.shape[1]))
    u = np.zeros_like(out)
    c1, c3, c5, c7, c9 = _STEADY_SERIES
    for frac, k in _runs(seq):
        ell = frac * t
        x = r * ell
        pos = x > 0.0
        xs = np.where(pos, x, 1.0)
        a = ell * np.where(pos, -np.expm1(-x) / xs, 1.0)
        th = np.tanh(0.5 * x)
        w = ell * np.where(pos, th / xs, 0.5)  # u* = -w
        x2 = x * x
        series = x * (c1 + x2 * (c3 + x2 * (c5 + x2 * (c7 + x2 * c9))))
        steady = 2.0 * ell**2 * np.where(x < 0.1, series, (x - 2.0 * th) / xs**2)
        ekx = np.exp(-k * x)
        if k % 2:
            g, power = 1.0 + ekx, -ekx
        else:
            g, power = -np.expm1(-k * x), ekx
        delta = u + w
        out += k * steady + 2.0 * a * delta * g / (1.0 + np.exp(-x))
        u = power * delta - w
    return out


# taus per q-integral: each tau adds its own panel edges and a kernel
# column, so one call over a long curve would cost O(n_tau^2) in memory
_TAU_BLOCK = 16


def _time_domain(taus, seq: PulseSequence, model, geom: GeometryConfig, *, rtol: float):
    r"""kappa^2 \int dq/2pi W_d(q) T chi_q Q(r_q; tau) for every tau.

    Consecutive taus share one q-integral, up to _TAU_BLOCK of them; its
    extra panel edges sit at the momenta where r_q = 1/tau and
    r_q = pi n_seg/tau for each tau.  Returns (values, errors,
    diagnostics); n_panels and n_eval are summed over the calls.
    """
    m = as_lorentzian_model(model)
    taus = np.asarray(taus, dtype=float)
    pref = seq.kappa**2 * m.T / (2.0 * math.pi)
    n_seg = seq.switches().size + 1
    vals, errs = [], []
    diag = {"path": "time_domain", "n_panels": 0, "n_eval": 0}
    for start in range(0, taus.size, _TAU_BLOCK):
        block = taus[start:start + _TAU_BLOCK]
        rates = [rate for t in block for rate in (1.0 / t, math.pi * n_seg / t)]
        v, e, info = _q_integral(m, geom, pref, lambda r, b=block: ou_phase_kernel(r, seq, b),
                                 rates, rtol)
        vals.append(v)
        errs.append(e)
        diag["n_panels"] += info["n_panels"]
        diag["n_eval"] += info["n_eval"]
    return np.concatenate(vals), np.concatenate(errs), diag


# past this many lobes the tail continuation has still not taken over and
# the omega path refuses the integral
_MAX_LOBES = 400000


def _filter_weighted(seq: PulseSequence, spectrum, *, rtol: float):
    r"""(1/pi) \int_0^inf W(omega) N(omega) domega with lobe-aligned panels.

    spectrum maps an omega array to N values.  Blocks of 16, 32, ... up to
    8192 lobes of width pi/tau are each one integrate call with an edge on
    every lobe boundary, until the analytic tail estimate is small; a
    smooth continuation with the exact 1/omega^2 envelope covers the rest.
    Returns (value, error, diag).
    """
    tau, kap = seq.tau, seq.kappa
    if kap == 0.0:
        return 0.0, 0.0, {"path": "omega", "n_lobes": 0, "omega_max": 0.0,
                          "n_panels": 0, "n_eval": 0}
    h = math.pi / tau
    _, jumps = jump_weights(seq)
    sj2 = float(np.sum(jumps**2))
    n_seg = max(1, seq.switches().size)

    def f(w):
        return filter_function(w, seq) * spectrum(w) / math.pi

    # W N >= 0, so blocks each within rtol of their own value sum to within
    # rtol of the total.  The smooth continuation below absorbs the
    # 1/omega^2-envelope tail, so extension only has to run until the
    # oscillatory residual of that continuation, ~(3(1+n_seg)/(tau Omega))
    # * tail, is inside the budget.
    total = err = 0.0
    n_panels = n_eval = 0
    osc_per_omega = 3.0 * (1.0 + n_seg) / tau
    k = 0
    block = 16
    while True:
        k_hi = min(k + block, _MAX_LOBES)
        # the panel cap allows 60 rounds of up to 4096 splits each
        v, e, info = integrate(f, k * h, k_hi * h, rtol=rtol, edges=h * np.arange(k + 1, k_hi),
                               max_panels=(k_hi - k) + 60 * 4096)
        total += v
        err += e
        n_panels += info["n_panels"]
        n_eval += info["n_eval"]
        k = k_hi
        omega_end = k * h
        n_end = float(np.max(spectrum(np.array([omega_end]))))
        tail_est = kap**2 * sj2 * n_end / (math.pi * omega_end)
        resid_est = osc_per_omega / omega_end * tail_est
        scale = abs(total)
        if scale > 0.0 and k >= 32 and \
                tail_est <= 0.05 * scale and resid_est <= 0.5 * rtol * scale:
            break
        if k >= _MAX_LOBES:
            raise QuadratureError(
                "filter-weighted integral did not converge within the lobe budget",
                value=total, error=tail_est)
        block = min(block * 2, 8192)

    # smooth tail continuation with the exact 1/omega^2 envelope
    env = kap**2 * sj2 / math.pi

    def tail_f(w):
        return env * spectrum(w) / w**2

    omega_far = omega_end * 1e9
    tail_val, tail_err, tail_info = integrate(tail_f, omega_end, omega_far, rtol=1e-3,
                                              edges=log_edges(omega_end, omega_far, 2),
                                              max_panels=1024)
    n_eval += tail_info["n_eval"]
    beyond = tail_f(np.array([omega_far]))[0] * omega_far  # <= integral of decreasing env
    osc = osc_per_omega / omega_end
    total += tail_val
    err += tail_err + beyond + osc * abs(tail_val)

    diag = {"path": "omega", "n_lobes": int(k), "omega_max": omega_end,
            "n_panels": int(n_panels), "n_eval": int(n_eval)}
    return float(total), float(err), diag


def phi_squared(tau: float, seq: PulseSequence, model=None, geom: GeometryConfig | None = None,
                *, tol_omega: float = 1e-6, tol_q: float = 1e-8,
                spectrum=None, full_output: bool = False):
    r"""Phase variance <phi^2> of seq rescaled to total time tau.

    With an explicit spectrum callable (omega array -> N values) this is
    \int domega/(2pi) W_tau(omega) N(omega) at rtol = tol_omega; tests and
    closed-form comparisons pass analytic spectra.  Otherwise (model, geom)
    give the time-domain q-integral of the per-mode kernel Q(r_q; tau) at
    rtol = min(tol_omega, tol_q).  With full_output, returns (value,
    error_estimate, diagnostics); the diagnostics record the path taken
    ("time_domain" or "omega"), n_panels and n_eval.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError("tau must be positive and finite")
    if spectrum is not None:
        value, err, diag = _filter_weighted(sequence_at(seq, tau), spectrum, rtol=tol_omega)
    elif model is None or geom is None:
        raise ValueError("phi_squared needs a model and geometry (or a spectrum)")
    else:
        vals, errs, diag = _time_domain([tau], seq, model, geom,
                                        rtol=min(tol_omega, tol_q))
        value, err = float(vals[0]), float(errs[0])
    value = max(value, 0.0)
    if full_output:
        return value, err, diag
    return value


def decoherence_curve(taus, seq: PulseSequence, model, geom: GeometryConfig, *,
                      tol_omega: float = 1e-6, tol_q: float = 1e-8) -> DecoherenceCurve:
    """Evaluate <phi^2> over a tau grid by the time-domain q-integral."""
    ts = np.sort(np.asarray(taus, dtype=float))
    if ts.size == 0 or np.any(ts <= 0.0):
        raise ValueError("taus must be positive")
    vals, errs, diag = _time_domain(ts, seq, model, geom, rtol=min(tol_omega, tol_q))
    prov = {"tol_omega": tol_omega, "tol_q": tol_q, **diag,
            "kappa": seq.kappa, "kind": seq.kind}
    return DecoherenceCurve(taus=ts, phi_sq=np.maximum(vals, 0.0), errors=errs, seq=seq,
                            model=model, geom=geom, provenance=prov)


def coherence(tau, qubit: QubitParams, phi_sq):
    """Coherence e^{-2 <phi^2>} e^{-tau/T1} in [0, 1]."""
    ps = np.asarray(phi_sq, dtype=float)
    if np.any(ps < 0.0):
        raise ValueError("phase variance must be non-negative")
    tt = np.asarray(tau, dtype=float)
    depol = np.exp(-tt / qubit.t1) if math.isfinite(qubit.t1) else np.ones_like(tt)
    out = np.exp(-2.0 * ps) * depol
    if np.ndim(phi_sq) == 0 and np.ndim(tau) == 0:
        return float(out)
    return out


def t2_extract(curve: DecoherenceCurve) -> float:
    """Root of 2 <phi^2>(tau) = 1 by bracketing plus continuous refinement.

    The crossing definition is T1-independent.  Refinement uses the curve's
    live evaluator when present, otherwise a monotone log-log interpolant of
    the samples.
    """
    ts = np.asarray(curve.taus, dtype=float)
    ys = 2.0 * np.asarray(curve.phi_sq, dtype=float) - 1.0
    if ts.size < 2:
        raise NoCrossingError("need at least two samples", bracket=(ts, ys + 1.0))
    sign = np.sign(ys)
    crossings = np.nonzero(np.diff(sign >= 0))[0]
    if ys[0] == 0.0:
        return float(ts[0])
    if crossings.size == 0:
        raise NoCrossingError(
            f"2<phi^2> spans [{ys[0] + 1.0:.6g}, {ys[-1] + 1.0:.6g}] and never crosses 1",
            bracket=(float(ys[0] + 1.0), float(ys[-1] + 1.0)))
    i = int(crossings[0])
    a, b = float(ts[i]), float(ts[i + 1])

    has_context = curve.seq is not None and curve.model is not None and curve.geom is not None
    if has_context:
        fn = lambda t: 2.0 * curve.evaluate(t) - 1.0
    else:
        interp = PchipInterpolator(np.log(ts), np.log(np.maximum(curve.phi_sq, 1e-300)))
        fn = lambda t: 2.0 * math.exp(interp(math.log(t))) - 1.0
    fa, fb = fn(a), fn(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        # sampled bracket disagrees with the refined evaluator; fall back
        return float(ts[i] + (ts[i + 1] - ts[i]) * (-ys[i]) / (ys[i + 1] - ys[i]))
    return float(brentq(fn, a, b, xtol=1e-12 * b, rtol=1e-12))


def cpmg_closed_form(tau: float, omega0: float, omega_p: float, amplitude: float) -> float:
    """Large-N CPMG phase variance for a Lorentzian noise spectrum.

    amplitude * (pi tau/(16 omega0)) [1 - tanh(x)/x], x = pi omega0/(2 omega_p).
    The bracket is evaluated by series below x = 1e-3 where the direct form
    loses digits to cancellation.  This equals the filter-weighted omega
    integral with the exact finite-N filter (N large) for the spectrum
    N(omega) = A omega0/(omega0^2 + omega^2) when amplitude = 16 kappa^2 A/pi.
    """
    if omega0 <= 0.0 or omega_p <= 0.0:
        raise ValueError("omega0 and omega_p must be positive")
    x = 0.5 * math.pi * omega0 / omega_p
    if x < 1e-3:
        bracket = x * x / 3.0 - 2.0 * x**4 / 15.0 + 17.0 * x**6 / 315.0
    else:
        bracket = 1.0 - math.tanh(x) / x
    return amplitude * (math.pi * tau / (16.0 * omega0)) * bracket


def filter_weight_integral(seq: PulseSequence, *, rtol: float = 1e-9):
    r"""(1/pi) \int_0^inf W_tau(omega) domega, exactly kappa^2 tau in theory.

    Resolved lobes by Gauss-Kronrod panels plus the closed-form tail: from
    the jump expansion W = (kappa^2/omega^2)|sum_k J_k e^{-i omega u_k}|^2,
    \int_Omega^inf W domega = kappa^2 [sum J_k^2/Omega
        + sum_{k<l} 2 J_k J_l (cos(Omega D)/Omega - D (pi/2 - Si(Omega D)))]
    with D = u_l - u_k.  Returns (value, error_estimate).
    """
    tau, kap = seq.tau, seq.kappa
    h = math.pi / tau
    n_seg = max(1, seq.switches().size)
    k_end = 64 * n_seg
    omega_end = k_end * h

    def f(w):
        return filter_function(w, seq) / math.pi

    val, err, _ = integrate(f, 0.0, omega_end, rtol=rtol,
                            edges=h * np.arange(1, k_end), max_panels=64 * n_seg + 4096)

    times, jumps = jump_weights(seq)
    tail = float(np.sum(jumps**2)) / omega_end
    ii, jj = np.triu_indices(times.size, k=1)
    delta = times[jj] - times[ii]
    si, _ = sici(omega_end * delta)
    pair = 2.0 * jumps[ii] * jumps[jj] * (
        np.cos(omega_end * delta) / omega_end - delta * (0.5 * math.pi - si))
    tail += float(pair.sum())
    val += kap**2 * tail / math.pi
    return val, err
