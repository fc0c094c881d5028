"""Self-tests of the benchmark's references and output checks.

    python3 -m pytest bench -q

The references are tested against closed forms, limits and each other;
each workload check is shown to pass on real critspec output and to fail
when one value of it is scaled by 1 + 1e-4.
"""

import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from critspec.collapse import CollapseResult  # noqa: E402

MODEL_A = {"kind": "model_a", "xi": 1.0}
PERTURB = 1.0 + 1e-4


def q_of(kind, tau, r, n=0):
    return float(ref.ou_q(r, ref.jump_pairs(ref.switch_times(kind, tau, n), tau))[0])


@pytest.mark.parametrize("r", [1e-4, 0.3, 5.0, 300.0])
def test_q_matches_ramsey_and_hahn_closed_forms(r):
    tau, x = 2.0, r * 2.0
    ramsey = 2.0 * (x + math.expm1(-x)) / r**2
    hahn = 2.0 * (x - 3.0 + 4.0 * math.exp(-x / 2) - math.exp(-x)) / r**2
    assert q_of("ramsey", tau, r) == pytest.approx(ramsey, rel=1e-12)
    if x > 1e-3:   # the Hahn closed form itself cancels below that
        assert q_of("hahn", tau, r) == pytest.approx(hahn, rel=1e-10)


def test_q_matches_a_direct_double_integral():
    tau, r, n = 1.0, 2.0, 3
    t = (np.arange(3000) + 0.5) * tau / 3000
    f = np.where(np.searchsorted(ref.switch_times("cpmg", tau, n).astype(float), t) % 2, -1.0, 1.0)
    direct = (f[:, None] * f[None, :] * np.exp(-r * np.abs(t[:, None] - t[None, :]))).sum()
    assert q_of("cpmg", tau, r, n) == pytest.approx(direct * (tau / 3000) ** 2, rel=1e-5)


def test_many_pulse_q_is_exact_to_its_bound():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    tau, n = 1.0, 128
    pairs = ref.jump_pairs(ref.switch_times("cpmg", tau, n), tau)
    times = [mp.mpf(0)] + [mp.mpf(tau) * (k - mp.mpf(1) / 2) / n for k in range(1, n + 1)] \
        + [mp.mpf(tau)]
    jumps = [1] + [2 * (-1) ** (i + 1) for i in range(n)] + [-((-1) ** n)]
    for r in (0.02, 400.0):
        R = mp.mpf(r)
        exact = -sum(2 * jumps[j] * jumps[k] * (R * (times[k] - times[j])
                                                + mp.expm1(-R * (times[k] - times[j]))) / R**2
                     for j in range(len(times)) for k in range(j + 1, len(times)))
        val, bound = ref.ou_q(r, pairs)
        assert abs(val - float(exact)) <= bound
        assert val == pytest.approx(float(exact), rel=1e-7)


def test_lorentzian_reaches_the_white_noise_limit():
    # omega0 tau >> 1: phi^2 -> kappa^2 N(0) tau with N(0) = A/omega0
    tau, amp, w0 = 1.0, 1.3, 1e4
    val, _ = ref.lorentzian_phi_squared([(amp, w0)], [], tau, kappa=1.5)
    assert val == pytest.approx(1.5**2 * amp / w0 * tau, rel=2.0 / (w0 * tau))


def test_phase_variance_short_time_limit():
    # tau -> 0: phi^2 -> tau^2 <B^2>, <B^2> = int dq/2pi q^3 e^{-2qd} T chi_q
    tau = 1e-5
    b2 = quad(lambda q: q**3 * math.exp(-2 * q) / (1 + q * q), 0, 60)[0] / (2 * math.pi)
    assert ref.phi_squared_ref(MODEL_A, 1.0, [], tau) == pytest.approx(tau**2 * b2, rel=1e-4)


def test_phase_variance_long_time_slope_is_zero_frequency_density():
    slope = (ref.phi_squared_ref(MODEL_A, 1.0, [], 2200.0)
             - ref.phi_squared_ref(MODEL_A, 1.0, [], 2000.0)) / 200.0
    assert slope == pytest.approx(ref.noise_density_ref(MODEL_A, 1.0, 0.0), rel=1e-6)


def test_lattice_sum_approaches_the_continuum():
    tau, sw = 4.0, ref.switch_times("hahn", 4.0)
    cont = ref.phi_squared_ref(MODEL_A, 2.0, sw, tau)
    assert ref.lattice_phi_squared(MODEL_A, 2.0, 256, sw, tau) == pytest.approx(cont, rel=1e-3)


def _rewrite(path, fn):
    text = Path(path).read_text()
    Path(path).write_text(fn(text))


def test_curves_check_catches_a_perturbed_row_and_t2(tmp_path):
    wl = workloads.Curves(0, str(tmp_path))
    wl.setup()
    op = wl.ops(0)[0]
    _, out = op.fn()
    assert wl.check({op.label: [out]})[0] == []
    assert "# t2_estimate:" in Path(out).read_text()

    good = Path(out).read_text()

    def scale_row(text):
        lines = text.splitlines(keepends=True)
        i = next(i for i, l in enumerate(lines) if l[:1].isdigit()) + 3
        cells = lines[i].split(",")
        phi = float(cells[1]) * PERTURB
        cells[1], cells[2] = repr(phi), repr(math.exp(-2.0 * phi))
        lines[i] = ",".join(cells)
        return "".join(lines)

    _rewrite(out, scale_row)
    problems = wl.check({op.label: [out]})[0]
    assert len(problems) == 1 and "reference" in problems[0]

    Path(out).write_text(good)
    _rewrite(out, lambda t: re.sub(r"# t2_estimate: (\S+)",
                                   lambda m: f"# t2_estimate: {float(m[1]) * PERTURB!r}", t))
    problems = wl.check({op.label: [out]})[0]
    assert len(problems) == 1 and "T2" in problems[0]


def test_spectra_check_catches_a_perturbed_integral_and_density(tmp_path):
    wl = workloads.Spectra(0, str(tmp_path))
    wl.setup()
    ops = {op.label: op for op in wl.ops(0)}
    label = wl.cases[0][0]
    value = ops[label].fn()[1]
    _, out = ops["spectrum0"].fn()
    assert wl.check({label: [value], "spectrum0": [out]})[0] == []
    assert len(wl.check({label: [value * PERTURB]})[0]) == 1

    def scale_density(text):
        lines = text.splitlines(keepends=True)
        i = next(i for i, l in enumerate(lines) if l[:1].isdigit()) + 5
        cells = lines[i].split(",")
        cells[1] = repr(float(cells[1]) * PERTURB)
        lines[i] = ",".join(cells)
        return "".join(lines)

    _rewrite(out, scale_density)
    assert len(wl.check({"spectrum0": [out]})[0]) == 1


def test_oracle_check_catches_a_perturbed_mode_sum(tmp_path):
    wl = workloads.Oracle(0, str(tmp_path))
    wl.setup()
    op = next(op for op in wl.final_ops() if op.label == "modesum-a-crit-L64-hahn")
    value = op.fn()[1]
    assert wl.check({op.label: [value]})[0] == []
    assert len(wl.check({op.label: [value * PERTURB]})[0]) == 1
    # a Monte Carlo mean far outside its chi-square interval is flagged too
    near = {op.label: [value], "mc-a-crit-L64-hahn": [(100, (1.3 * value, 0.0))]}
    far = {op.label: [value], "mc-a-crit-L64-hahn": [(100, (3.0 * value, 0.0))]}
    assert wl.check(near)[0] == []
    assert len(wl.check(far)[0]) == 1


def test_collapse_check_flags_off_band_and_clamped_fits():
    def result(**kw):
        base = dict(nu=0.5, eta=0.0, z=2.0, critical_value=1.0, amplitude=1.0,
                    residual=1e-6, converged=True, clamped=False, seed=0,
                    kind="classical", param_names=("nu", "eta", "z", "T_c", "xi0"))
        return CollapseResult(**{**base, **kw})

    wl = workloads.Collapse(0, None)
    assert wl.check({"fit-A-s1-b0": [result()]})[0] == []
    assert len(wl.check({"fit-A-s1-b0": [result(z=2.11)]})[0]) == 1
    assert len(wl.check({"fit-B-s5-b0": [result(z=4.0, clamped=True)]})[0]) == 1
