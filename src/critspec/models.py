"""Dynamic susceptibilities and structure factors of the sample models.

Four interchangeable families, all overdamped per mode.  Each states its
mode law once (_mode_law), two relations linear in s = q^2:

    coupling chi_q r_q = k0 + k1 s,  inverse susceptibility 1/chi_q = u0 + u1 s

    family       k0           k1         u0       u1          dynamics
    ModelA       gamma0       0          J/xi^2   J           non-conserved, z = 2
    ModelB       0            sigma_s    J/xi^2   J           conserved, z = 4
    DiffusiveO3  0            chi_u D_s  1/chi_u  0           spin diffusion
    TfimQC       chi00 Gamma  0          1/chi00  xi^2/chi00  quantum critical

O3Regime resolves to DiffusiveO3 through o3_transport.  Per mode that is a
Lorentzian pair (chi_q, r_q):

    chi(q, omega) = chi_q r_q / (r_q - i omega)
    S(q, omega)   = 2 T chi_q r_q / (r_q^2 + omega^2)      (classical FDT)

so S = (2T/omega) Im chi holds to rounding by construction.
lorentzian_parameters, lorentzian_coupling, resonance_q and is_critical_ab
follow from the law; the noise engine and the stochastic oracle build on
them.  xi = math.inf is the critical point: J/xi^2 is then exactly 0.0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelA",
    "ModelB",
    "DiffusiveO3",
    "TfimQC",
    "O3Regime",
    "lorentzian_parameters",
    "lorentzian_coupling",
    "chi",
    "structure_factor",
    "fdt_convert",
    "o3_transport",
    "as_lorentzian_model",
]

CLASSICAL = "classical"
QUANTUM = "quantum"


def _positive(name, value, allow_inf=False):
    ok = value > 0.0 and (allow_inf or math.isfinite(value))
    if not ok:
        raise ValueError(f"{name} must be positive{'' if allow_inf else ' and finite'}")


def _temperature(value):
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError("temperature must be finite and non-negative")


@dataclass(frozen=True)
class ModelA:
    """Non-conserved relaxational dynamics: chi = Gamma0/(Gamma0 J (xi^-2 + q^2) - i omega)."""

    J: float
    gamma0: float
    xi: float
    T: float

    def __post_init__(self):
        _positive("J", self.J)
        _positive("gamma0", self.gamma0)
        _positive("xi", self.xi, allow_inf=True)
        _temperature(self.T)


@dataclass(frozen=True)
class ModelB:
    """Conserved dynamics, Gamma(q) = sigma_s q^2: relaxation rate sigma_s J q^2 (q^2 + xi^-2)."""

    J: float
    sigma_s: float
    xi: float
    T: float

    def __post_init__(self):
        _positive("J", self.J)
        _positive("sigma_s", self.sigma_s)
        _positive("xi", self.xi, allow_inf=True)
        _temperature(self.T)


@dataclass(frozen=True)
class DiffusiveO3:
    """Hydrodynamic spin diffusion: chi = chi_u D_s q^2/(-i omega + D_s q^2)."""

    chi_u: float
    D_s: float
    T: float

    def __post_init__(self):
        _positive("chi_u", self.chi_u)
        _positive("D_s", self.D_s)
        _temperature(self.T)


@dataclass(frozen=True)
class TfimQC:
    """Quantum-critical Ising form: chi = chi(0,0)/(1 - i omega/Gamma + q^2 xi^2).

    chi(0,0) = T^{(eta-2)/z}, Gamma = T, xi = c/T^{1/z}; valid at the critical
    coupling for temperatures small compared to microscopic scales.
    """

    c: float
    T: float
    z: float = 1.0
    eta: float = 0.0

    def __post_init__(self):
        _positive("c", self.c)
        _positive("T", self.T)
        _positive("z", self.z)
        if not math.isfinite(self.eta):
            raise ValueError("eta must be finite")

    @property
    def xi(self) -> float:
        return self.c / self.T ** (1.0 / self.z)

    @property
    def gamma_rate(self) -> float:
        return self.T

    @property
    def chi00(self) -> float:
        return self.T ** ((-2.0 + self.eta) / self.z)


@dataclass(frozen=True)
class O3Regime:
    """O(3) sigma-model regime near a quantum critical point.

    delta is the stiffness rho_s on the ordered side, the gap Delta on the
    paramagnet side, and must be 0 at criticality, where nothing reads it.
    Observables go through o3_transport, which maps the regime onto
    DiffusiveO3 coefficients.
    """

    c: float
    T: float
    delta: float = 0.0
    side: str = "critical"

    def __post_init__(self):
        if self.side not in ("ordered", "critical", "paramagnet"):
            raise ValueError(f"unknown O3 regime {self.side!r}")
        _positive("c", self.c)
        _positive("T", self.T)
        if self.side != "critical":
            _positive("delta", self.delta)
        elif self.delta != 0.0:
            raise ValueError("delta must be 0 on the critical side")

    def to_diffusive(self) -> DiffusiveO3:
        chi_u, d_s = o3_transport(self)
        return DiffusiveO3(chi_u=chi_u, D_s=d_s, T=self.T)


def as_lorentzian_model(model):
    """Resolve O3Regime to its diffusive coefficients; pass others through."""
    if isinstance(model, O3Regime):
        return model.to_diffusive()
    return model


def _mode_law(model):
    """(k0, k1, u0, u1): chi_q r_q = k0 + k1 s and 1/chi_q = u0 + u1 s, s = q^2."""
    m = as_lorentzian_model(model)
    if isinstance(m, ModelA):
        return m.gamma0, 0.0, m.J / (m.xi * m.xi), m.J
    if isinstance(m, ModelB):
        return 0.0, m.sigma_s, m.J / (m.xi * m.xi), m.J
    if isinstance(m, DiffusiveO3):
        return 0.0, m.chi_u * m.D_s, 1.0 / m.chi_u, 0.0
    if isinstance(m, TfimQC):
        return m.chi00 * m.gamma_rate, 0.0, 1.0 / m.chi00, m.xi * m.xi / m.chi00
    raise TypeError(f"not a sample model: {type(model).__name__}")


def lorentzian_parameters(model, q):
    """Per-mode static susceptibility and relaxation rate (chi_q, r_q) = (1/u, k u).

    Broadcast over q (q >= 0, |q| for vectors).  At a critical point chi_q
    diverges as q -> 0 for Model A/B; callers that need the product
    chi_q r_q should use the stable coupling below.
    """
    k0, k1, u0, u1 = _mode_law(model)
    qq = np.asarray(q, dtype=float)
    if np.any(qq < 0.0):
        raise ValueError("momentum magnitude must be non-negative")
    s = qq**2
    u = u0 + u1 * s
    with np.errstate(divide="ignore"):
        chi_q = 1.0 / u
    return chi_q, (k0 + k1 * s) * u


def resonance_q(model, omega: float) -> float | None:
    """Momentum where the mode rate r_q of lorentzian_parameters crosses omega, if any.

    The positive root in s of (k0 + k1 s)(u0 + u1 s) = omega, taken as
    s = -2c/(b + sqrt(b^2 - 4ac)) so nothing cancels; None when omega <= r_0.
    """
    k0, k1, u0, u1 = _mode_law(model)
    a, b, c = k1 * u1, k0 * u1 + k1 * u0, k0 * u0 - omega
    if not c < 0.0:
        return None
    return math.sqrt(-2.0 * c / (b + math.sqrt(b * b - 4.0 * a * c)))


def is_critical_ab(model) -> bool:
    """u0 = 0: chi_q diverges at q = 0, and so does N(0); Model A or B at xi = inf."""
    return _mode_law(model)[2] == 0.0


def lorentzian_coupling(model, q):
    """chi_q * r_q = k0 + k1 q^2, free of the intermediate divergence."""
    k0, k1, _, _ = _mode_law(model)
    return k0 + k1 * np.asarray(q, dtype=float) ** 2


def chi(model, q, omega):
    """Dynamic susceptibility chi(q, omega), complex.

    q is the momentum magnitude (or an array of them).  omega = 0 returns
    the static susceptibility; at a critical point that diverges as q -> 0
    and the divergence is returned as inf rather than masked.
    """
    qq = np.asarray(q, dtype=float)
    ww = np.asarray(omega, dtype=float)
    if not (np.all(np.isfinite(qq)) and np.all(np.isfinite(ww))):
        raise ValueError("chi needs finite q and omega")
    _, r_q = lorentzian_parameters(model, qq)
    num = lorentzian_coupling(model, qq)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(num / (r_q - 1j * ww), dtype=complex)
        # q = 0 conserved modes: coupling and rate both vanish; the static
        # limit is still the finite chi_q, so patch omega == 0 separately.
        static = np.broadcast_to(ww == 0.0, out.shape)
        if np.any(static):
            chi_q, _ = lorentzian_parameters(model, qq)
            out[static] = np.broadcast_to(chi_q, out.shape)[static] + 0.0j
    if np.ndim(q) == 0 and np.ndim(omega) == 0:
        return complex(out)
    return out


def structure_factor(model, q, omega):
    """Classical dynamic structure factor S(q, omega) = 2 T chi_q r_q/(r_q^2 + omega^2).

    Identical to (2T/omega) Im chi(q, omega) for omega != 0 and equal to its
    analytic omega -> 0 limit at omega = 0.  Diverges (returns inf) only at
    r_q = omega = 0 with nonzero coupling, i.e. exactly at a critical point.
    """
    m = as_lorentzian_model(model)
    qq = np.asarray(q, dtype=float)
    ww = np.asarray(omega, dtype=float)
    _, r_q = lorentzian_parameters(m, qq)
    num = 2.0 * m.T * lorentzian_coupling(m, qq)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / (r_q**2 + ww**2)
    out = np.where(np.broadcast_to(num == 0.0, np.shape(out)), 0.0, out)
    if np.ndim(q) == 0 and np.ndim(omega) == 0:
        return float(out)
    return out


def fdt_convert(im_chi, omega, temperature, mode=CLASSICAL):
    """Convert Im chi to a symmetrized structure factor.

    classical: S = (2 T / omega) Im chi
    quantum:   S = 2 Im chi / (1 - e^{-omega/T}), hbar = 1

    The two agree as omega -> 0 (the quantum denominator is evaluated with
    expm1, so small omega/T is exact to rounding).  omega = 0 itself is a
    0/0 pointwise and raises; use structure_factor for analytic limits.
    """
    ww = np.asarray(omega, dtype=float)
    ic = np.asarray(im_chi, dtype=float)
    if np.any(ww == 0.0):
        raise ValueError("fdt_convert is pointwise ill-defined at omega = 0; "
                         "structure_factor carries the analytic limit")
    if temperature <= 0.0:
        raise ValueError("fdt_convert needs a positive temperature")
    if mode == CLASSICAL:
        out = 2.0 * temperature * ic / ww
    elif mode == QUANTUM:
        out = 2.0 * ic / (-np.expm1(-ww / temperature))
    else:
        raise ValueError(f"unknown FDT mode {mode!r}")
    if np.ndim(im_chi) == 0 and np.ndim(omega) == 0:
        return float(out)
    return out


# O(3) sigma-model transport.  chi_u = (T/c^2) Phi_u(delta/T) and
# D_s = (c^2/T) Phi_D(delta/T) with the scaling functions known in the three
# regimes; the 0.3 in the critical product D_s chi_u is a one-significant-
# figure literature input, carried verbatim.
_O3_CRITICAL_PHI_U = (math.sqrt(5.0) / math.pi) * math.log((math.sqrt(5.0) + 1.0) / 2.0)


def o3_transport(model: O3Regime):
    """Uniform susceptibility and spin-diffusion constant (chi_u, D_s).

    ordered    (T << rho_s): chi_u = (T/c^2)[2 rho_s/(3T) + 1/(3 pi)],
                             D_s = (c^2/T) sqrt(T/rho_s) e^{2 pi rho_s/T}
    critical              :  chi_u = (sqrt5/pi) ln((sqrt5+1)/2) T/c^2,
                             D_s = 0.3/chi_u
    paramagnet (T << Delta): chi_u = (Delta/(pi c^2)) e^{-Delta/T},
                             D_s = pi c^2 ln^2(Delta/T) e^{Delta/T}/Delta

    Warns when the requested regime is outside its window (delta/T <= 1).
    """
    if not isinstance(model, O3Regime):
        raise TypeError("o3_transport takes an O3Regime")
    c, t = model.c, model.T
    if model.side == "critical":
        chi_u = _O3_CRITICAL_PHI_U * t / c**2
        return chi_u, 0.3 / chi_u
    ratio = model.delta / t
    if ratio <= 1.0:
        warnings.warn(
            f"O3 {model.side} transport used at delta/T = {ratio:.3g} <= 1; "
            "expressions hold for T well below delta",
            stacklevel=2,
        )
    if model.side == "ordered":
        rho_s = model.delta
        chi_u = (t / c**2) * (2.0 * rho_s / (3.0 * t) + 1.0 / (3.0 * math.pi))
        d_s = (c**2 / t) * math.sqrt(t / rho_s) * math.exp(2.0 * math.pi * rho_s / t)
        return chi_u, d_s
    gap = model.delta
    chi_u = gap / (math.pi * c**2) * math.exp(-gap / t)
    d_s = math.pi * c**2 * math.log(gap / t) ** 2 * math.exp(gap / t) / gap
    return chi_u, d_s
