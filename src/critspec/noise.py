r"""Noise spectral density, decoherence curves, and T2 extraction.

Every sample model is a set of independent Lorentzian (Ornstein-Uhlenbeck)
modes (models.py), so the phase variance of a model is one q-integral of a
closed-form time kernel, the filter-function result in the time domain:

    <phi^2>(tau) = kappa^2 \int_0^inf dq/(2pi) W_d(q) T chi_q Q(r_q; tau),
    Q(r; tau)    = \int_0^tau \int_0^tau f(t) f(t') e^{-r|t-t'|} dt dt'.

ou_phase_kernel evaluates Q in closed form, one step per run of equal
segments of the pulse sequence, with its exp, expm1 and tanh taken once per
distinct segment length.  The oracle's lattice mode sums use the same
kernel.  N(omega) is the same q-integral with the kernel 2 r/(r^2 + omega^2).
_q_integral alone splits the q-axis for both: every tau or omega is one
component of an adaptive quadrature call, 16 per call, on the momentum
filter's panel edges plus a low-q ladder where the call's slowest mode
resonates below them.

T2 is the first root of 2 <phi^2>(tau) = 1 on a DecoherenceCurve.
t2_extract brackets it between two of the curve's samples and narrows the
bracket by batched steps, each one q-integral over up to nine taus: the
bracket's midpoint in ln tau and a ladder around a cubic prediction.  A
smooth curve takes two steps.

The frequency-domain route <phi^2> = \int domega/(2pi) W_tau(omega) N(omega)
serves explicit spectrum callables: blocks of lobes (width pi/tau), each
one Kronrod panel a lobe unless it needs an adaptive quadrature call, and a
1/omega^2-envelope continuation past the last lobe Omega.  What the
continuation drops is, by parts, an exact h(Omega) G(Omega) term, which is
added, and a rest bounded by
    R = (2 kappa^2/pi) |h'(Omega)| (sup |H| + |H(Omega)|),
h = N/omega^2, G and H = sum_{k<l} J_k J_l cos(omega D_kl)/D_kl^2 over the
sequence's jump pairs (G = -H').  The bound needs h convex and
non-increasing from half a lobe before Omega on, as it is for positive
Lorentzian mixtures, the package's model spectra; |h'(Omega)| is taken
from one more spectrum value per block end.  tol_omega is the whole error
budget: a quarter to the lobe blocks, half to R, which sets the lobe
count, and a quarter to the continuation (_filter_weighted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import sici

from .filters import (GeometryConfig, PulseSequence, filter_function,
                      jump_weights, momentum_filter)
from .models import as_lorentzian_model, is_critical_ab, lorentzian_parameters, resonance_q
from .quadrature import QuadratureError, integrate, kronrod_panels, log_edges

__all__ = [
    "QubitParams",
    "DecoherenceCurve",
    "NoCrossingError",
    "noise_spectral_density",
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
class DecoherenceCurve:
    """<phi^2>(tau) samples with per-point error estimates and provenance.

    Keeps the sequence, model and geometry, so t2_extract refines roots on
    the continuous curve, always at the tolerances provenance records.
    """

    taus: np.ndarray
    phi_sq: np.ndarray
    errors: np.ndarray
    seq: PulseSequence
    model: object
    geom: GeometryConfig
    provenance: dict

    def evaluate(self, tau):
        """Continuous <phi^2> at tau, a scalar or an array, at the curve's
        recorded tolerances.

        One _time_domain call for all of tau, so up to 16 taus are one
        q-integral; a scalar gives a float.
        """
        ts = np.atleast_1d(np.asarray(tau, dtype=float))
        if not np.all(np.isfinite(ts) & (ts > 0.0)):
            raise ValueError("tau must be positive and finite")
        vals, _, _ = _time_domain(ts, self.seq, self.model, self.geom,
                                  tol_omega=self.provenance["tol_omega"],
                                  tol_q=self.provenance["tol_q"])
        vals = np.maximum(vals, 0.0)
        return float(vals[0]) if np.ndim(tau) == 0 else vals


class NoCrossingError(ValueError):
    """Curve does not span 2<phi^2> = 1; carries the end values."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


def sequence_at(seq: PulseSequence, tau: float) -> PulseSequence:
    """The same sequence shape rescaled to total time tau.

    Kind, kappa and pulse count are kept; custom switch times are scaled by
    tau/seq.tau so the waveform shape is preserved.
    """
    scale = tau / seq.tau
    return replace(seq, tau=tau, switch_times=tuple(scale * t for t in seq.switch_times))


# panel edges of every q-integral, in units of 1/d_min: the momentum
# filter's scale
_Q_EDGES = (0.05, 0.2, 0.5, 1.0, 1.5, 2.5, 4.0, 8.0, 16.0)

# kernel columns per integrate call: every column is one more component at
# every node, so one call over a long curve would cost O(n^2) in memory
_BLOCK = 16


def _q_integral(m, geom: GeometryConfig, pref: float, kernel, columns, rates, rtol: float):
    r"""\int_0^{40/d_min} dq pref W_d(q) chi_q kernel(r_q, c), one component per column c.

    columns is a sorted array (tau or |omega|) and rates their kernels'
    turnover rates (1/tau or |omega|).  kernel maps the mode rates r_q
    (shape (n,)) and a block of columns (shape (k,)) to an (n, k) array.
    W_d is suppressed by e^{-80} at q = 40/d_min.

    The columns go in blocks of _BLOCK, one integrate call each, with panel
    edges at the shared q/d set and 1/xi.  Where a block's slowest positive
    rate resonates at q_r below the first shared edge, log edges run from
    q_r/2 up to it, two a decade: no Kronrod node of the first shared panel
    would resolve a feature that far inside it, so its |K - G| estimate
    could not see it.  Returns (values, errors, info), info's counts summed
    over the calls.
    """
    d_min = float(np.min(geom.depths))
    shared = [x / d_min for x in _Q_EDGES]
    xi = getattr(m, "xi", math.inf)
    if math.isfinite(xi):
        shared.append(1.0 / xi)

    def integrand(q, block):
        chi_q, r_q = lorentzian_parameters(m, q)
        return (pref * momentum_filter(q, geom) * chi_q)[:, None] * kernel(r_q, block)

    vals, errs = [], []
    info = {"n_panels": 0, "n_eval": 0}
    for start in range(0, columns.size, _BLOCK):
        block = columns[start:start + _BLOCK]
        positive = rates[start:start + _BLOCK]
        positive = positive[positive > 0.0]
        qr = resonance_q(m, float(positive.min())) if positive.size else None
        edges = shared
        if qr is not None and qr < shared[0]:
            edges = [*shared, *log_edges(0.5 * qr, shared[0])]
        v, e, i = integrate(lambda q, b=block: integrand(q, b), 0.0, 40.0 / d_min,
                            rtol=rtol, edges=edges, max_panels=8192)
        vals.append(np.atleast_1d(v))
        errs.append(np.atleast_1d(e))
        info["n_panels"] += i["n_panels"]
        info["n_eval"] += i["n_eval"]
    return np.concatenate(vals), np.concatenate(errs), info


def noise_spectral_density(omega, model, geom: GeometryConfig, *,
                           tol_q: float = 1e-8, full_output: bool = False):
    r"""N(omega) = \int dq/2pi W_d(q) T chi_q 2 r_q/(r_q^2 + omega^2).

    Every |omega| is one component of the q-integral, in blocks of sorted
    |omega| (_q_integral).  omega may be a scalar or an array; N is even in
    omega.  At a critical point (xi = inf, Model A/B) the q-integral
    diverges at omega = 0 and inf is returned for that entry rather than a
    silently unconverged number.
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
        div = (w == 0.0) & is_critical_ab(m)
        out[div] = math.inf
        todo = np.flatnonzero(~div)
        if todo.size:
            todo = todo[np.argsort(w[todo])]
            ws = w[todo]

            def lorentzian(r, wc):
                r = r[:, None]
                return 2.0 * r / (r * r + wc * wc)

            out[todo], err[todo], _ = _q_integral(m, geom, m.T / (2.0 * math.pi),
                                                  lorentzian, ws, ws, tol_q)

    if np.ndim(omega) == 0:
        return (float(out[0]), float(err[0])) if full_output else float(out[0])
    out = out.reshape(w_in.shape)
    err = err.reshape(w_in.shape)
    return (out, err) if full_output else out


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

    One step per run of seq.runs, the runs of equal consecutive segments,
    which the sequence builds once.  The carried
    amplitude u (earlier segments' weight e^{-r(t - t')}, signed relative
    to the current segment) obeys u <- -e u - a over a segment of length
    l, with e = e^{-r l} and a = (1 - e)/r, and the segment adds
    2 (r l - 1 + e)/r^2 + 2 a u.  Over a run of k segments u relaxes
    geometrically to u* = -tanh(r l/2)/r, so the run adds in closed form
        k (2/r^2)(r l - 2 tanh(r l/2)) + 2 a (u - u*) (1 - (-e)^k)/(1 + e)
    and leaves u = u* + (-e)^k (u - u*).  The cost is O(runs) per mode:
    one run for Ramsey, three for CPMG-N.

    Everything that depends on l alone (r l, a, tanh, u*, the steady term
    and e) is taken once per distinct segment length, as one stacked
    (lengths, rates, taus) array: CPMG-N has two lengths, its half
    segments sharing one.  The run loop then only steps u, plus e^{-k r l}
    for runs of k > 1 segments.
    """
    r = np.asarray(rates, dtype=float).reshape(-1, 1)
    t = np.asarray(seq.tau if taus is None else taus, dtype=float).reshape(1, -1)
    which = {}  # row of the stacked arrays for each distinct segment length
    for frac, _ in seq.runs:
        which.setdefault(frac, len(which))
    ell = np.array(list(which)).reshape(-1, 1, 1) * t
    x = r * ell
    pos = x > 0.0
    xs = np.where(pos, x, 1.0)
    a2 = 2.0 * (ell * np.where(pos, -np.expm1(-x) / xs, 1.0))
    th = np.tanh(0.5 * x)
    w = ell * np.where(pos, th / xs, 0.5)  # u* = -w
    c1, c3, c5, c7, c9 = _STEADY_SERIES
    x2 = x * x
    series = x * (c1 + x2 * (c3 + x2 * (c5 + x2 * (c7 + x2 * c9))))
    steady = 2.0 * ell**2 * np.where(x < 0.1, series, (x - 2.0 * th) / xs**2)
    ex = np.exp(-x)
    ex1 = 1.0 + ex
    out = np.zeros((r.shape[0], t.shape[1]))
    u = 0.0
    for frac, k in seq.runs:
        i = which[frac]
        ekx = ex[i] if k == 1 else np.exp(-k * x[i])
        if k % 2:
            g, power = 1.0 + ekx, -ekx
        else:
            g, power = -np.expm1(-k * x[i]), ekx
        delta = u + w[i]
        out += k * steady[i] + a2[i] * delta * g / ex1[i]
        u = power * delta - w[i]
    return out


def _time_domain(taus, seq: PulseSequence, model, geom: GeometryConfig, *,
                 tol_omega: float, tol_q: float):
    r"""kappa^2 \int dq/2pi W_d(q) T chi_q Q(r_q; tau) for every tau of sorted taus.

    Each tau is one column of _q_integral, with turnover rate 1/tau, at
    rtol, the tighter of tol_omega and tol_q.  Returns (values, errors,
    diagnostics); the diagnostics record rtol, and n_panels and n_eval
    summed over the calls.
    """
    m = as_lorentzian_model(model)
    taus = np.asarray(taus, dtype=float)
    pref = seq.kappa**2 * m.T / (2.0 * math.pi)
    rtol = min(tol_omega, tol_q)
    vals, errs, info = _q_integral(m, geom, pref, lambda r, b: ou_phase_kernel(r, seq, b),
                                   taus, 1.0 / taus, rtol)
    return vals, errs, {"path": "time_domain", "rtol": rtol, **info}


# past this many lobes the tail continuation has still not taken over and
# the omega path refuses the integral
_MAX_LOBES = 400000


def _grid_train(seq: PulseSequence):
    """(step, train): the jumps of a Ramsey or CPMG sequence on the grid
    u_p = p step, step = tau/(2n), n = max(1, N); train[p] = J_p, p = 0..2n."""
    times, jumps = jump_weights(seq)
    n_grid = 2 * max(1, seq.switches().size)
    step = seq.tau / n_grid
    train = np.zeros(n_grid + 1)
    train[np.rint(times / step).astype(int)] = jumps
    return step, train


def _jump_sines(seq: PulseSequence):
    r"""Lags and coefficients of the jump pairs: G(omega) = sum coefs sin(omega lags)/lags.

    G = sum_{k<l} J_k J_l sin(omega D_kl)/D_kl over the jumps of
    jump_weights, D_kl = u_l - u_k.  G' is half the oscillating part of
    omega^2 W/kappa^2 = |sum_k J_k e^{-i omega u_k}|^2, the part the
    1/omega^2 tail continuation drops, and G = -H' with
    H = sum coefs cos(omega lags)/lags^2.  Ramsey and CPMG jump on the grid
    of _grid_train, so equal lags are merged by an autocorrelation; a
    custom sequence keeps every pair.  Returns (lags, coefs).
    """
    if seq.kind == "custom":
        times, jumps = jump_weights(seq)
        ii, jj = np.triu_indices(times.size, k=1)
        return times[jj] - times[ii], jumps[ii] * jumps[jj]
    step, train = _grid_train(seq)
    n_grid = train.size - 1
    power = np.abs(np.fft.rfft(train, 2 * n_grid + 2)) ** 2
    coefs = np.rint(np.fft.irfft(power, 2 * n_grid + 2)[1:n_grid + 1])
    return step * np.arange(1, n_grid + 1), coefs


class _LobeFilter:
    r"""W(omega) at the Kronrod nodes of lobes of width h = pi/tau.

    Ramsey and CPMG jump at u_p = p tau/(2n) (_grid_train), so at the node
    omega = x_i + j h of lobe j, with x_i the node of lobe 0,
        sum_p J_p e^{-i omega u_p} = sum_p [J_p e^{-i x_i u_p}] e^{-2 pi i p j/(4n)},
    a length-4n DFT over p.  One FFT of the bracketed (15, 2n + 1) array,
    zero-padded to 4n, gives omega^2 W = kappa^2 |.|^2 on the 4n lobes of a
    period: a (4n, 15) table, built on the first call from its nodes moved
    back to lobe 0.  Lobe j reads row j mod 4n and divides it by its own
    omega^2.  A custom sequence shares no grid and evaluates every lobe's
    own nodes.
    """

    def __init__(self, seq: PulseSequence):
        self.seq = seq
        self.table = None

    def __call__(self, j0: int, x: np.ndarray) -> np.ndarray:
        """W at x, the (n, 15) nodes of lobes j0..j0+n-1, as a new (n, 15) array."""
        if self.seq.kind == "custom":
            return filter_function(x, self.seq)
        if self.table is None:
            step, train = _grid_train(self.seq)
            nodes = x[0] - j0 * math.pi / self.seq.tau
            phase = np.multiply.outer(nodes, step * np.arange(train.size))
            amp = np.fft.fft(train * np.exp(-1j * phase), n=2 * train.size - 2)
            self.table = (self.seq.kappa**2 * (amp.real**2 + amp.imag**2)).T.copy()
        period, n = self.table.shape[0], x.shape[0]
        # whole periods copied in blocks: a gather through an index array
        # (np.take, with or without mode="wrap") costs 2.5x more
        start = j0 % period
        w = np.tile(self.table, (-(-(start + n) // period), 1))[start:start + n]
        w /= x * x
        return w


# lobes per first-round chunk: bounds the node arrays of a lobe block
_LOBE_CHUNK = 2048


def _lobe_block(seq: PulseSequence, spectrum, lobes: _LobeFilter, k: int, k_hi: int, *,
                rtol: float):
    r"""(1/pi) \int W N domega over lobes k..k_hi-1, as integrate returns it.

    The first round is one 15-node Kronrod panel a lobe, with W from lobes
    times N from spectrum in place, in chunks of _LOBE_CHUNK lobes; each
    chunk's sums take the 1/pi.  It is the result when its |K - G| sum
    meets rtol of its value, integrate's own first test.  Otherwise the
    block is one integrate call with an edge on every lobe boundary, which
    places the same first-round nodes, capped at 4096 panels past its one a
    lobe.
    """
    h = math.pi / seq.tau
    val = err = 0.0

    def values(j0, x):
        wn = lobes(j0, x).reshape(-1)
        wn *= spectrum(x.reshape(-1))
        return wn

    for j0 in range(k, k_hi, _LOBE_CHUNK):
        edges = h * np.arange(j0, min(j0 + _LOBE_CHUNK, k_hi) + 1)
        v, e = kronrod_panels(edges[:-1], edges[1:], lambda x: values(j0, x))
        val += float(v.sum()) / math.pi
        err += float(e.sum()) / math.pi
    if err <= rtol * abs(val):
        return val, err, {"n_panels": k_hi - k, "n_eval": 15 * (k_hi - k)}

    def f(w):
        return filter_function(w, seq) * spectrum(w) / math.pi

    return integrate(f, k * h, k_hi * h, rtol=rtol, edges=h * np.arange(k + 1, k_hi),
                     max_panels=(k_hi - k) + 4096)


def _filter_weighted(seq: PulseSequence, spectrum, *, rtol: float):
    r"""(1/pi) \int_0^inf W(omega) N(omega) domega with lobe-aligned panels.

    spectrum maps an omega array to N values.  Blocks of 16, 32, ... up to
    8192 lobes of width pi/tau each go to _lobe_block, whose first round
    gives a smooth lobe one 15-node panel, until the remainder bound below
    stops them at some Omega.  A continuation with the exact 1/omega^2
    envelope covers the rest.  Returns (value, error, diag).

    Cost: W comes from one (4n, 15) table of omega^2 W per call, one FFT
    of the jump train (_LobeFilter; 0.3 ms at CPMG-256), so a first-round
    node costs a table read, a divide by omega^2, one spectrum value and
    its share of the node-grid and Kronrod-sum matrix products, about 5 ns
    on top of the spectrum (2-CPU Xeon, one BLAS thread).  Only blocks
    that need refinement evaluate filter_function, the segment sum, at
    every node: 0.1 us a node for Ramsey, 0.2 us for Hahn and about 60 ns
    a segment (N + 1 of them) at large N.  n_eval counts every node
    either way.

    The continuation is one integral over s = Omega/omega,
        (kappa^2 sum J^2/pi) \int_Omega^inf N/omega^2 domega
            = (kappa^2 sum J^2/(pi Omega)) \int_0^1 N(Omega/s) ds.
    It drops (2 kappa^2/pi) \int_Omega^inf h dG with h = N/omega^2 and G
    from _jump_sines.  By parts that is
        -(2 kappa^2/pi) [h(Omega) G(Omega) + \int_Omega^inf h' G domega];
    the first term is added exactly.  With G = -H' and h convex and
    non-increasing past Omega - pi/(2 tau), -h' is non-negative and
    non-increasing there, so by the second mean-value theorem the rest is
    at most
        R = (2 kappa^2/pi) |h'(Omega)| (sup |H| + |H(Omega)|),
    with sup |H| <= sum |coefs|/lags^2 and |h'(Omega)| at most the secant
    slope of h over [Omega - pi/(2 tau), Omega], which costs one more
    spectrum value per block end.  Where that secant is negative, h
    rises and the blocks go on.  Positive Lorentzian mixtures, the
    package's model spectra among them, and flat spectra give a convex h.

    The budget splits rtol three ways.  Each lobe block meets rtol/4 of its
    own value, so, as W N >= 0, the blocks meet rtol/4 of the lobe sum L.
    The blocks stop once R <= rtol/2 of L.  The continuation C meets
    rtol/4 of its own value.  The returned error is the sum of the three,
    at most rtol (L + C), as far as h is convex and non-increasing past
    Omega - pi/(2 tau) and each |K - G| estimate covers its panel's miss.
    """
    tau, kap = seq.tau, seq.kappa
    if kap == 0.0:
        return 0.0, 0.0, {"path": "omega", "n_lobes": 0, "omega_max": 0.0,
                          "n_panels": 0, "n_eval": 0}
    width = math.pi / tau
    _, jumps = jump_weights(seq)
    env = kap**2 * float(np.sum(jumps**2)) / math.pi
    lags, coefs = _jump_sines(seq)
    # G = sum sines sin(omega lags), H = sum cosines cos(omega lags), |H| <= cos_sup
    sines, cosines = coefs / lags, coefs / lags**2
    cos_sup = float(np.sum(np.abs(cosines)))
    lobes = _LobeFilter(seq)

    total = err = 0.0
    n_panels = n_eval = 0
    k = 0
    block = 16
    while True:
        k_hi = min(k + block, _MAX_LOBES)
        v, e, info = _lobe_block(seq, spectrum, lobes, k, k_hi, rtol=0.25 * rtol)
        total += v
        err += e
        n_panels += info["n_panels"]
        n_eval += info["n_eval"]
        k = k_hi
        omega_end = k * width
        ends = np.array([omega_end - 0.5 * width, omega_end])
        # a flat spectrum may return a float
        h_mid, h_end = np.broadcast_to(spectrum(ends), ends.shape) / ends**2
        phase = omega_end * lags
        edge = -2.0 * kap**2 / math.pi * h_end * float(np.sum(sines * np.sin(phase)))
        slope = (h_mid - h_end) / (0.5 * width)
        resid = (2.0 * kap**2 / math.pi * slope
                 * (cos_sup + abs(float(np.sum(cosines * np.cos(phase))))))
        scale = abs(total)
        if scale > 0.0 and 0.0 <= resid <= 0.5 * rtol * scale:
            break
        if k >= _MAX_LOBES:
            # total holds no continuation, so the error adds its flat-N size
            raise QuadratureError(
                "filter-weighted integral did not converge within the lobe budget",
                value=total,
                error=err + abs(resid) + abs(edge) + env * h_end * omega_end)
        block = min(block * 2, 8192)

    def tail_f(s):
        return np.broadcast_to(spectrum(omega_end / s), s.shape) * (env / omega_end)

    tail_val, tail_err, tail_info = integrate(tail_f, 0.0, 1.0, rtol=0.25 * rtol)
    n_eval += tail_info["n_eval"]
    total += tail_val + edge
    err += tail_err + resid

    diag = {"path": "omega", "n_lobes": int(k), "omega_max": omega_end,
            "n_panels": int(n_panels), "n_eval": int(n_eval)}
    return float(total), float(err), diag


def phi_squared(tau: float, seq: PulseSequence, model=None, geom: GeometryConfig | None = None,
                *, tol_omega: float = 1e-6, tol_q: float = 1e-8,
                spectrum=None, full_output: bool = False):
    r"""Phase variance <phi^2> of seq rescaled to total time tau.

    With an explicit spectrum callable (omega array -> N values), and no
    model or geometry, this is \int domega/(2pi) W_tau(omega) N(omega);
    tests and closed-form comparisons pass analytic spectra.  Its error
    estimate is then at most tol_omega of the value; _filter_weighted
    states how that budget is shared and what it assumes of N.
    Otherwise (model, geom) give the time-domain q-integral of the
    per-mode kernel Q(r_q; tau) at the tighter of tol_omega and tol_q.
    With full_output, returns (value, error_estimate, diagnostics); the
    diagnostics record the path taken ("time_domain" or "omega"), n_panels
    and n_eval.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError("tau must be positive and finite")
    if (spectrum is None, model is None, geom is None) not in ((True, False, False),
                                                              (False, True, True)):
        raise ValueError("phi_squared takes a spectrum alone, or a model and a geometry")
    if spectrum is not None:
        value, err, diag = _filter_weighted(sequence_at(seq, tau), spectrum, rtol=tol_omega)
    else:
        vals, errs, diag = _time_domain([tau], seq, model, geom,
                                        tol_omega=tol_omega, tol_q=tol_q)
        value, err = float(vals[0]), float(errs[0])
    value = max(value, 0.0)
    if full_output:
        return value, err, diag
    return value


def decoherence_curve(taus, seq: PulseSequence, model, geom: GeometryConfig, *,
                      tol_omega: float = 1e-6, tol_q: float = 1e-8) -> DecoherenceCurve:
    """<phi^2> over a tau grid by the time-domain q-integral; the curve
    records tol_omega and tol_q and always evaluates itself at them."""
    ts = np.sort(np.asarray(taus, dtype=float))
    if ts.size == 0 or not np.all(np.isfinite(ts) & (ts > 0.0)):
        raise ValueError("taus must be positive and finite")
    vals, errs, diag = _time_domain(ts, seq, model, geom, tol_omega=tol_omega, tol_q=tol_q)
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


# offsets of the trial taus around the predicted root, in units of the
# stop tolerance: the inner pair closes the bracket when the prediction is
# that good, the outer ones keep a coarser prediction's bracket small
_T2_LADDER = (0.4, 30.0, 1e3, 3e4)


def _cubic_zero(xs, ys, lo: float, hi: float, xtol: float) -> float:
    """Zero in [lo, hi], to xtol, of the cubic through the four points
    (xs, ys), which takes values of opposite sign at lo and hi: Newton
    from the secant, bisecting where a step leaves the shrinking bracket.
    A tighter xtol would chase the rounding of the cubic's values, which
    is large next to its slope when the points are close together."""
    c = list(ys)
    for j in (1, 2, 3):  # Newton's divided differences
        for m in range(3, j - 1, -1):
            c[m] = (c[m] - c[m - 1]) / (xs[m] - xs[m - j])

    def cubic(x):  # value and slope
        val, der = c[3], 0.0
        for m in (2, 1, 0):
            der = der * (x - xs[m]) + val
            val = val * (x - xs[m]) + c[m]
        return val, der

    f_lo, f_hi = cubic(lo)[0], cubic(hi)[0]
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    for _ in range(100):
        val, der = cubic(x)
        if val == 0.0:
            return x
        if (val < 0.0) == (f_lo < 0.0):
            lo = x
        else:
            hi = x
        nxt = x - val / der if der != 0.0 else lo
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= xtol:
            return nxt
        x = nxt
    return x


def _t2_predict(ts, vs, k: int, xtol: float) -> float:
    """Predicted ln tau of 2 <phi^2> = 1 in the bracket ts[k], ts[k + 1].

    vs holds 2 <phi^2> at ts.  The zero, to xtol in ln tau, of the cubic
    through the four known points nearest the bracket in
    (ln tau, ln 2<phi^2>): of the windows of four consecutive points
    around it, the narrowest in tau whose phi^2 are all positive.  With no
    such window, the bracket's secant (_t2_secant).
    """
    windows = [j for j in (k - 1, k - 2, k)
               if j >= 0 and j + 4 <= len(ts) and min(vs[j:j + 4]) > 0.0]
    if not windows:
        return _t2_secant(ts, vs, k)
    j = min(windows, key=lambda j: ts[j + 3] / ts[j])
    return _cubic_zero([math.log(t) for t in ts[j:j + 4]], [math.log(v) for v in vs[j:j + 4]],
                       math.log(ts[k]), math.log(ts[k + 1]), xtol)


def _t2_secant(ts, vs, k: int) -> float:
    """ln tau where the secant of the bracket ts[k], ts[k + 1] crosses 1:
    in (ln tau, ln 2<phi^2>), or in (ln tau, 2<phi^2>) where an end has
    phi^2 = 0.  vs holds 2 <phi^2> at ts."""
    xa, xb = math.log(ts[k]), math.log(ts[k + 1])
    fa, fb = vs[k] - 1.0, vs[k + 1] - 1.0
    if vs[k] > 0.0 and vs[k + 1] > 0.0:
        fa, fb = math.log(vs[k]), math.log(vs[k + 1])
    return xa - fa * (xb - xa) / (fb - fa)


def t2_extract(curve: DecoherenceCurve) -> float:
    """Root of 2 <phi^2>(tau) = 1 by bracketing plus continuous refinement.

    The crossing definition is T1-independent.  The bracket ends are the
    curve's own samples around its first crossing, so they are not
    integrated again.  Each refinement step is one curve.evaluate call, so
    one q-integral, over a sorted batch of taus strictly inside the
    bracket, at the tolerances the curve recorded:
      - the bracket's midpoint in ln tau, so every step at least halves
        the bracket in ln tau;
      - the ladder r (1 +- f tol), f in _T2_LADDER, where r is the zero of
        the cubic through the four known points nearest the bracket in
        (ln tau, ln 2<phi^2>), or the bracket ends' secant (_t2_predict).
    The new bracket is the first adjacent pair of evaluated points that
    straddles 1.  The search stops once the bracket is within tol, a tenth
    of the rtol the curve recorded, in tau and relative: closer steps would
    chase the curve's own rounding.  It returns the secant root of the last
    bracket (_t2_secant), or an end where 2 <phi^2> is exactly 1.  A
    smooth curve takes one or two steps; any curve takes at most
    ceil(log2(ln(b/a)/log1p(tol))) + 1 on a bracket [a, b].
    """
    ts = np.asarray(curve.taus, dtype=float)
    vs = 2.0 * np.asarray(curve.phi_sq, dtype=float)
    ys = vs - 1.0
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
    k = int(crossings[0])
    tol = max(0.1 * curve.provenance["rtol"], 4.0 * np.finfo(float).eps)

    # every tau known so far, sorted, with its 2 <phi^2>; the bracket is
    # known[k], known[k + 1]
    known_t, known_v = ts.tolist(), vs.tolist()
    while True:
        a, b = known_t[k], known_t[k + 1]
        for t, v in ((a, known_v[k]), (b, known_v[k + 1])):
            if v == 1.0:
                return t
        if b - a <= tol * b:
            break
        root = math.exp(_t2_predict(known_t, known_v, k, 0.01 * tol))
        trial = {a * math.sqrt(b / a)}
        trial.update(root * (1.0 + s * f * tol) for f in _T2_LADDER for s in (-1.0, 1.0))
        new = sorted(t for t in trial if a < t < b)
        vals = (2.0 * curve.evaluate(np.array(new))).tolist()
        known_t[k + 1:k + 1] = new
        known_v[k + 1:k + 1] = vals
        below = known_v[k] < 1.0
        while (known_v[k + 1] < 1.0) == below:
            k += 1

    return min(max(math.exp(_t2_secant(known_t, known_v, k)), a), b)


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


def filter_weight_integral(seq: PulseSequence):
    r"""(1/pi) \int_0^inf W_tau(omega) domega, exactly kappa^2 tau in theory.

    Resolved lobes by Gauss-Kronrod panels at rtol 1e-9 plus the closed-form tail: from
    the jump expansion W = (kappa^2/omega^2)|sum_k J_k e^{-i omega u_k}|^2,
    \int_Omega^inf W domega = kappa^2 [sum J_k^2/Omega
        + sum_{k<l} 2 J_k J_l (cos(Omega D)/Omega - D (pi/2 - Si(Omega D)))]
    with D = u_l - u_k, summed over the merged lags of _jump_sines.  Returns
    (value, error_estimate).
    """
    tau, kap = seq.tau, seq.kappa
    h = math.pi / tau
    n_seg = max(1, seq.switches().size)
    k_end = 64 * n_seg
    omega_end = k_end * h

    # W alone, on the same lobe blocks as the omega path
    val, err, _ = _lobe_block(seq, lambda w: 1.0, _LobeFilter(seq), 0, k_end, rtol=1e-9)

    _, jumps = jump_weights(seq)
    tail = float(np.sum(jumps**2)) / omega_end
    lags, coefs = _jump_sines(seq)
    si, _ = sici(omega_end * lags)
    pair = 2.0 * coefs * (np.cos(omega_end * lags) / omega_end - lags * (0.5 * math.pi - si))
    tail += float(pair.sum())
    val += kap**2 * tail / math.pi
    return val, err
