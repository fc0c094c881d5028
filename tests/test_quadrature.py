import math

import numpy as np
import pytest

from critspec.quadrature import (_NODES, _WGAUSS, _WK, QuadratureError, integrate,
                                 kronrod_panels, log_edges)


def test_polynomial_is_exact():
    val, err, _ = integrate(lambda x: x**3, 0.0, 1.0)
    assert abs(val - 0.25) < 1e-14
    assert err < 1e-12


def test_kronrod_panels_takes_the_node_grid_and_is_one_round_of_integrate():
    # the callable sees one row of 15 nodes per panel; the Gauss rule is
    # exact to degree 13, so |K - G| vanishes there and not at degree 14
    lo, hi = np.array([0.0, 1.0]), np.array([1.0, 2.0])
    shapes = []

    def values(x):
        shapes.append(x.shape)
        return np.stack([x**13, x**14], axis=-1)

    k, e = kronrod_panels(lo, hi, values)
    assert shapes == [(2, 15)] and k.shape == e.shape == (2, 2)
    np.testing.assert_allclose(k[:, 0], (hi**14 - lo**14) / 14.0, rtol=1e-14)
    np.testing.assert_allclose(k[:, 1], (hi**15 - lo**15) / 15.0, rtol=1e-14)
    assert np.all(e[:, 0] < 1e-11) and np.all(e[:, 1] > 1e-9)
    val, err, info = integrate(lambda x: x**13, 0.0, 2.0, edges=[1.0], rtol=1e-3)
    assert info["n_eval"] == 30 and (val, err) == (k[:, 0].sum(), e[:, 0].sum())


@pytest.mark.parametrize("m", [1, 16])
@pytest.mark.parametrize("n", [1, 16, 2048])
def test_kronrod_panels_matches_the_elementwise_sums(n, m):
    # the node grid and the K/G sums are matrix products; they agree with
    # c + h x_j and the elementwise weighted sums to rounding, judged
    # against sum |w f| since the integrands change sign
    rng = np.random.default_rng([n, m])
    lo = np.sort(rng.uniform(-50.0, 50.0, n))
    hi = lo + rng.uniform(1e-3, 10.0, n)
    a, b = rng.uniform(0.5, 3.0, (2, m))
    seen = []

    def values(x):
        seen.append(x)
        fx = np.cos(a * x[:, :, None]) * np.exp(-b * np.abs(x[:, :, None]) / 50.0)
        return fx[:, :, 0] if m == 1 else fx

    k, e = kronrod_panels(lo, hi, values)
    (x,) = seen
    assert x.shape == (n, 15) and x.flags.c_contiguous
    assert k.shape == e.shape == (n, m)
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    grid = c[:, None] + h[:, None] * _NODES
    assert np.all(np.abs(x - grid) <= 2e-16 * (np.abs(c) + h)[:, None])
    fx = values(x).reshape(n, 15, m)
    k_ref = (fx * _WK[None, :, None]).sum(axis=1) * h[:, None]
    g_ref = (fx * _WGAUSS[None, :, None]).sum(axis=1) * h[:, None]
    scale = (np.abs(fx) * (_WK + _WGAUSS)[None, :, None]).sum(axis=1) * h[:, None]
    assert np.all(np.abs(k - k_ref) <= 1e-15 * scale)
    assert np.all(np.abs(e - np.abs(k_ref - g_ref)) <= 1e-15 * scale)


def test_kronrod_tables_are_exact_to_rounding():
    # the 15-node rule is exact to degree 22, its embedded 7-node Gauss rule
    # to degree 13; numpy's own leggauss(7) weights are up to 4 ulp off the
    # exact values, its nodes 1 ulp
    k = np.arange(23)
    exact = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
    powers = _NODES[:, None] ** k
    assert np.max(np.abs(_WK @ powers - exact)) <= 4e-16
    assert np.max(np.abs(_WGAUSS @ powers[:, :14] - exact[:14])) <= 4e-16
    x, w = np.polynomial.legendre.leggauss(7)
    gauss = _WGAUSS > 0.0
    np.testing.assert_array_max_ulp(_NODES[gauss], x, maxulp=2)
    np.testing.assert_array_max_ulp(_WGAUSS[gauss], w, maxulp=4)


def test_exponential_matches_closed_form():
    val, err, _ = integrate(lambda x: np.exp(-x), 0.0, 10.0, rtol=1e-12)
    exact = 1.0 - math.exp(-10.0)
    assert abs(val - exact) <= max(err, 1e-13 * exact)


def test_oscillatory_with_seeded_edges():
    # int_0^{20 pi} x sin x dx = -20 pi; the lobes cancel in pairs, so the
    # seeded lobe edges carry the rtol test
    edges = math.pi * np.arange(1, 20)
    val, err, _ = integrate(lambda x: x * np.sin(x), 0.0, 20.0 * math.pi,
                            rtol=1e-10, edges=edges)
    assert abs(val + 20.0 * math.pi) <= max(err, 1e-13 * 20.0 * math.pi)


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
    e = log_edges(1e-3, 1e3)
    assert e.size == 13  # two a decade
    assert e[0] == pytest.approx(1e-3)
    assert e[-1] == pytest.approx(1e3)
    assert np.all(np.diff(e) > 0)
    with pytest.raises(ValueError):
        log_edges(0.0, 1.0)


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0)


@pytest.mark.parametrize("rtol", [math.nan, math.inf, 0.0, -1.0])
def test_bad_rtol_rejected(rtol):
    # at NaN no panel is picked to split and at inf any error passes: one round
    with pytest.raises(ValueError, match="rtol must be finite and positive"):
        integrate(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0, rtol=rtol)
