import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from critspec.filters import GeometryConfig, PulseSequence
from critspec.models import ModelA, ModelB


@pytest.fixture
def model_a_far():
    return ModelA(gamma0=1.0, J=1.0, xi=1.0, T=1.0)


@pytest.fixture
def model_a_critical():
    return ModelA(gamma0=1.0, J=1.0, xi=math.inf, T=1.0)


@pytest.fixture
def model_b_critical():
    return ModelB(sigma_s=1.0, J=1.0, xi=math.inf, T=1.0)


@pytest.fixture
def unit_geometry():
    return GeometryConfig(d=1.0)


def ou_pair_covariance(rate, t_gap):
    # double integral of e^{-r|t-s|} over the gap window, written from the
    # closed form rather than reusing the package helper
    x = rate * t_gap
    if x < 1e-8:
        return t_gap * t_gap * (0.5 - x / 6.0 + x * x / 24.0)
    return (x + math.expm1(-x)) / (rate * rate)


def _jumps(n_switches):
    # steps of f at 0, at each switch and at tau (f starts at +1)
    return ([1.0] + [2.0 * (-1.0) ** (i + 1) for i in range(n_switches)]
            + [-((-1.0) ** n_switches)])


@functools.lru_cache(maxsize=None)
def _pair_moments(times, n_terms=40):
    """c_n = -2/n! sum_{j<k} J_j J_k ((t_k - t_j)/tau)^n for n = 2, 3, ...

    Taken exactly in rational arithmetic and rounded once: the signed pair
    sum cancels to a small fraction of its terms at slow rates.
    """
    t = [Fraction(x) / Fraction(times[-1]) for x in times]
    jumps = _jumps(len(times) - 2)
    weight = {}
    for j in range(len(t)):
        for k in range(j + 1, len(t)):
            gap = t[k] - t[j]
            weight[gap] = weight.get(gap, 0) - 2 * int(jumps[j] * jumps[k])
    return tuple(float(sum(w * g ** n for g, w in weight.items()) / math.factorial(n))
                 for n in range(2, n_terms + 2))


def sequence_double_integral(rate, switch_times, tau):
    """Independent reference for the OU phase variance of one mode.

    Q = int_0^tau int_0^tau f(t) f(s) e^{-r|t-s|} dt ds via the jump-pair
    expansion; f toggles sign at each switch time.  For r tau <= 4 the
    pairs' Taylor series in r is summed with exact pair moments, since
    the pair sum in floating point loses digits to cancellation there
    (5e-3 relative for CPMG-64 at r tau = 2e-4).
    """
    times = [0.0] + list(switch_times) + [tau]
    x = rate * tau
    if x <= 4.0:
        moments = _pair_moments(tuple(map(float, times)))
        return tau * tau * sum(c * (-x) ** i for i, c in enumerate(moments))
    jumps = _jumps(len(switch_times))
    total = 0.0
    for j in range(len(times)):
        for k in range(j + 1, len(times)):
            total -= 2.0 * jumps[j] * jumps[k] * ou_pair_covariance(rate, times[k] - times[j])
    return total


def radial_phi_squared(tau, switch_times, *, d, chi_fn, rate_fn, temperature,
                       breakpoints=()):
    """Scratch-built reference: q-integral of the per-mode OU variance.

    phi^2 = int dq/(2 pi) q^3 e^{-2 q d} T chi(q) Q(r(q)); quad with the
    caller's breakpoints, entirely separate from the production quadrature.
    """
    from scipy.integrate import quad

    def f(q):
        return (q ** 3 * math.exp(-2.0 * q * d) * temperature * chi_fn(q)
                * sequence_double_integral(rate_fn(q), switch_times, tau)
                / (2.0 * math.pi))

    pts = [p for p in breakpoints if 0.0 < p < 40.0 / d]
    val, _ = quad(f, 0.0, 40.0 / d, limit=400, points=pts or None)
    return val


def make_sequence(name, tau):
    if name == "ramsey":
        return PulseSequence.ramsey(tau), []
    if name == "hahn":
        return PulseSequence.hahn(tau), [tau / 2.0]
    n = int(name.split("-")[1])
    seq = PulseSequence.cpmg(n, tau)
    return seq, [tau * (k - 0.5) / n for k in range(1, n + 1)]
