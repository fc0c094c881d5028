import math

import numpy as np
import pytest

from critspec.quadrature import QuadratureError, integrate, log_edges


def test_polynomial_is_exact():
    val, err, _ = integrate(lambda x: x**3, 0.0, 1.0)
    assert abs(val - 0.25) < 1e-14
    assert err < 1e-12


def test_exponential_matches_closed_form():
    val, err, _ = integrate(lambda x: np.exp(-x), 0.0, 10.0, rtol=1e-12)
    exact = 1.0 - math.exp(-10.0)
    assert abs(val - exact) <= max(err, 1e-13 * exact)


def test_oscillatory_with_seeded_edges():
    # int_0^{20 pi} cos x dx = 0; lobe edges keep the cancellation stable
    edges = math.pi * np.arange(1, 20)
    val, err, _ = integrate(np.cos, 0.0, 20.0 * math.pi,
                            rtol=1e-10, atol=1e-12, edges=edges)
    assert abs(val) < 1e-10


def test_vector_integrand_componentwise():
    def f(x):
        return np.stack([x, x**2], axis=-1)

    val, err, _ = integrate(f, 0.0, 2.0, rtol=1e-12)
    assert np.allclose(val, [2.0, 8.0 / 3.0], rtol=1e-12)
    assert err.shape == (2,)


def test_integrable_singularity_converges():
    val, err, _ = integrate(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0,
                            rtol=1e-6, max_panels=1 << 16)
    assert abs(val - 2.0) < 1e-4


def test_error_estimate_brackets_truth():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, width = rng.uniform(0.0, 1.0), rng.uniform(0.5, 3.0)
        k = rng.uniform(1.0, 8.0)
        val, err, _ = integrate(lambda x: np.sin(k * x), a, a + width, rtol=1e-9)
        exact = (math.cos(k * a) - math.cos(k * (a + width))) / k
        assert abs(val - exact) <= max(10.0 * err, 1e-9 * abs(exact) + 1e-14)


def test_halving_rtol_stays_within_reported_error():
    def f(x):
        return np.exp(-x) * np.cos(7.0 * x)

    coarse, err_c, _ = integrate(f, 0.0, 30.0, rtol=1e-6)
    fine, err_f, _ = integrate(f, 0.0, 30.0, rtol=5e-7)
    assert abs(coarse - fine) <= err_c + err_f


def test_panel_cap_raises_with_best_estimate():
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda x: 1.0 / np.sqrt(np.abs(x)), 1e-300, 1.0,
                  rtol=1e-13, max_panels=8)
    assert exc.value.value is not None
    assert exc.value.error is not None
    assert exc.value.error > 0.0


def test_log_edges_span_and_monotone():
    e = log_edges(1e-3, 1e3, per_decade=4)
    assert e[0] == pytest.approx(1e-3)
    assert e[-1] == pytest.approx(1e3)
    assert np.all(np.diff(e) > 0)
    with pytest.raises(ValueError):
        log_edges(0.0, 1.0)


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0)
