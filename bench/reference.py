"""Reference values computed apart from critspec, to check its outputs.

Nothing here imports critspec.  Every formula is written from the physics
the package documents, along a different route from the package's:

* the phase variance is a q-integral (scipy's QUADPACK) of the per-mode
  Ornstein-Uhlenbeck variance T chi_q Q(r_q), with Q from the jump-pair
  expansion, where the package integrates N(omega) against the filter;
* N(omega) is the same q-integral of the Lorentzian structure factor;
* a Lorentzian spectrum A omega0/(omega0^2 + omega^2) is one OU process
  of variance A/2, so its phase variance is exactly kappa^2 (A/2) Q(omega0);
* the oracle's lattice reference is summed over the full L x L grid, where
  the package keeps half the modes with multiplicities.

Models are given as the CLI's "model" block (a dict), with the CLI's
defaults, so one description serves the configs and their checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

# The jump-pair sum cancels heavily for many pulses at slow rates, so it
# runs in extended precision (80-bit on x86-64; plain double where the
# platform's long double is no wider, and then the rounding bound grows).
WIDE = np.longdouble
EPS_WIDE = float(np.finfo(WIDE).eps)


def switch_times(kind: str, tau: float, n_pulses: int = 0) -> np.ndarray:
    """Sign-flip instants: none for Ramsey, tau (k - 1/2)/N for CPMG-N."""
    if kind == "ramsey":
        return np.empty(0, dtype=WIDE)
    n = 1 if kind == "hahn" else int(n_pulses)
    return WIDE(tau) * (np.arange(1, n + 1, dtype=WIDE) - WIDE(0.5)) / n


def jump_pairs(switches, tau: float):
    """Separations u_jk and coefficients -2 J_j J_k over the jumps of f(t).

    f starts at +1 and flips at each switch, so its jumps are +1 at 0,
    -+2 at each switch and the closing jump at tau.  Pairs at the same
    separation (to 1e-12 tau) are merged by adding their integer
    coefficients, which is exact: evenly spaced pulses give O(N) distinct
    separations instead of O(N^2) pairs.
    """
    times = np.concatenate(([WIDE(0)], np.asarray(switches, dtype=WIDE), [WIDE(tau)]))
    n = times.size - 2
    jumps = np.array([1.0] + [2.0 * (-1.0) ** (i + 1) for i in range(n)]
                     + [-((-1.0) ** n)])
    j, k = np.triu_indices(times.size, k=1)
    u = times[k] - times[j]
    coef = -2.0 * jumps[j] * jumps[k]
    order = np.argsort(u, kind="stable")
    u, coef = u[order], coef[order]
    starts = np.flatnonzero(np.diff(u, prepend=-np.inf) > 1e-12 * tau)
    u, coef = u[starts], np.add.reduceat(coef, starts)
    keep = coef != 0.0
    return u[keep], coef[keep].astype(WIDE)


def ou_q(rate, pairs):
    """Q(r) = int int f(t) f(s) e^{-r|t-s|} dt ds, with a rounding bound.

    Q = -sum_{j<k} 2 J_j J_k G(u_jk), G(u) = (r u + e^{-r u} - 1)/r^2 (a
    series below r u = 1e-3).  Returns float64 (value, bound on the
    rounding error of the sum).
    """
    u, coef = pairs
    r = np.asarray(rate, dtype=WIDE)[..., None]
    x = r * u
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(x < 1e-3,
                     u * u * (0.5 - x / 6.0 + x * x / 24.0 - x**3 / 120.0),
                     (x + np.expm1(-x)) / (r * r))
    terms = coef * g
    bound = (8.0 + np.log2(max(u.size, 1))) * EPS_WIDE * np.abs(terms).sum(axis=-1)
    return terms.sum(axis=-1).astype(float), bound.astype(float)


def mode_functions(model: dict):
    """(T, chi_q * q^3, r_q, chi_q * r_q) for a CLI model block."""
    kind = model["kind"]
    T = float(model.get("T", 1.0))
    J = float(model.get("J", 1.0))
    xi = model.get("xi")
    m2 = 0.0 if xi is None or math.isinf(xi) else float(xi) ** -2
    if kind == "model_a":
        g0 = float(model.get("gamma0", 1.0))
        return (T, lambda q: q**3 / (J * (m2 + q * q)),
                lambda q: g0 * J * (m2 + q * q), lambda q: g0 + 0.0 * q)
    if kind == "model_b":
        s = float(model.get("sigma_s", 1.0))
        return (T, lambda q: q**3 / (J * (m2 + q * q)),
                lambda q: s * J * q * q * (m2 + q * q), lambda q: s * q * q)
    c = float(model.get("c", 1.0))
    if kind == "tfim":
        z = float(model.get("z", 1.0))
        eta = float(model.get("eta", 0.0))
        chi0 = T ** ((eta - 2.0) / z)
        xi_t = c / T ** (1.0 / z)
        return (T, lambda q: q**3 * chi0 / (1.0 + (q * xi_t) ** 2),
                lambda q: T * (1.0 + (q * xi_t) ** 2), lambda q: chi0 * T + 0.0 * q)
    if kind == "o3":
        side = model.get("side", "critical")
        if side == "critical":
            chi_u = math.sqrt(5.0) / math.pi * math.log((math.sqrt(5.0) + 1.0) / 2.0) * T / c**2
            d_s = 0.3 / chi_u
        elif side == "paramagnet":
            gap = float(model["delta"])
            chi_u = gap / (math.pi * c**2) * math.exp(-gap / T)
            d_s = math.pi * c**2 * math.log(gap / T) ** 2 * math.exp(gap / T) / gap
        else:
            raise ValueError(f"no reference for the o3 side {side!r}")
        return (T, lambda q: chi_u * q**3, lambda q: d_s * q * q,
                lambda q: chi_u * d_s * q * q)
    raise ValueError(f"no reference for the model kind {kind!r}")


def _rate_crossing(rate, target: float, q_hi: float):
    """q in (0, q_hi) with rate(q) = target, by bisection (rates rise in q)."""
    lo, hi = 0.0, q_hi
    if not (rate(lo) < target < rate(hi)):
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if rate(mid) < target else (lo, mid)
    return 0.5 * (lo + hi)


def _q_breakpoints(d: float, rate, rates_of_interest, q_hi: float):
    pts = [x / d for x in (0.05, 0.2, 0.5, 1.0, 1.5, 2.5, 4.0, 8.0, 16.0)]
    for w in rates_of_interest:
        q = _rate_crossing(rate, w, q_hi)
        if q is not None:
            pts += [0.5 * q, q, 2.0 * q]
    return sorted(p for p in set(pts) if 0.0 < p < q_hi)


def phi_squared_ref(model: dict, d: float, switches, tau: float,
                    kappa: float = 1.0) -> float:
    """<phi^2> = kappa^2 int dq/2pi q^3 e^{-2qd} T chi_q Q(r_q), by quad."""
    T, chi_q3, rate, _ = mode_functions(model)
    pairs = jump_pairs(switches, tau)
    q_hi = 60.0 / d
    n_seg = len(switches) + 1

    def f(q):
        return math.exp(-2.0 * q * d) * T * chi_q3(q) * float(ou_q(rate(q), pairs)[0])

    pts = _q_breakpoints(d, rate, (1.0 / tau, math.pi * n_seg / tau), q_hi)
    val, _ = quad(f, 0.0, q_hi, points=pts, limit=1000, epsabs=0.0, epsrel=1e-9)
    return kappa**2 * val / (2.0 * math.pi)


def noise_density_ref(model: dict, d: float, omega: float) -> float:
    """N(omega) = int dq/2pi q^3 e^{-2qd} 2T chi_q r_q/(r_q^2 + omega^2)."""
    T, _, rate, coupling = mode_functions(model)
    q_hi = 60.0 / d

    def f(q):
        r = rate(q)
        return q**3 * math.exp(-2.0 * q * d) * 2.0 * T * coupling(q) / (r * r + omega * omega)

    pts = _q_breakpoints(d, rate, (abs(omega),), q_hi)
    val, _ = quad(f, 0.0, q_hi, points=pts, limit=1000, epsabs=0.0, epsrel=1e-10)
    return val / (2.0 * math.pi)


def lorentzian_phi_squared(terms, switches, tau: float, kappa: float = 1.0):
    """Exact phase variance for N(omega) = sum_i A_i w_i/(w_i^2 + omega^2).

    Each term is an OU process of variance A_i/2 and rate w_i, so the
    variance is kappa^2 sum_i (A_i/2) Q(w_i).  Returns (value, rounding bound).
    """
    pairs = jump_pairs(switches, tau)
    val = err = 0.0
    for amp, w0 in terms:
        q, e = ou_q(w0, pairs)
        val += 0.5 * amp * float(q)
        err += 0.5 * abs(amp) * float(e)
    return kappa**2 * val, kappa**2 * err


def lattice_phi_squared(model: dict, d: float, L: int, switches, tau: float,
                        kappa: float = 1.0) -> float:
    """Lattice mode sum seen by a probe at the origin, over the full grid.

    B = (2/L) sum_q h_q phi_q with h_q = q e^{-q d}/2 (unit spacing and
    prefactor), so <phi^2> = kappa^2 sum_{q != 0} (2/L)^2 h_q^2 T chi_q Q(r_q).
    """
    T, chi_q3, rate, _ = mode_functions(model)
    n = np.arange(L) - L // 2
    nx, ny = np.meshgrid(n, n, indexing="ij")
    q = 2.0 * math.pi * np.hypot(nx, ny).ravel() / L
    q = q[q > 0.0]
    h2 = (0.5 * q * np.exp(-q * d)) ** 2
    qv, _ = ou_q(rate(q), jump_pairs(switches, tau))
    return float(kappa**2 * (2.0 / L) ** 2 * np.sum(h2 * T * chi_q3(q) / q**3 * qv))
