"""Closed-form asymptotic regimes and phase-variance cells.

Every value here is exponent-accurate with unit prefactor: comparisons
against the numeric engine are slope fits or ratio-constancy checks, never
value equality.  The classical cells are written at the J = 1 convention
used throughout the package's natural-unit tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .filters import GeometryConfig
from .models import (DiffusiveO3, ModelA, ModelB, O3Regime, TfimQC,
                     as_lorentzian_model, lorentzian_parameters, o3_transport)

__all__ = [
    "RegimeLabel",
    "omega0_for",
    "classify_regime",
    "heuristic_phi_squared",
    "table1_classical",
    "table1_quantum",
]

STATIC = "static"
DYNAMIC = "dynamic"
NEAR_FIELD = "near_field"
FAR_FIELD = "far_field"


@dataclass(frozen=True)
class RegimeLabel:
    """Which asymptotic cell a configuration sits in, with margins.

    margins are the dimensionless ratios (omega0 * tau, d / xi); a margin
    within a factor 10 of one means the configuration is in a crossover
    where no single cell is accurate.
    """

    time_regime: str
    length_regime: str
    omega0_tau: float
    d_over_xi: float

    def __post_init__(self):
        if self.time_regime not in (STATIC, DYNAMIC):
            raise ValueError("time_regime must be 'static' or 'dynamic'")
        if self.length_regime not in (NEAR_FIELD, FAR_FIELD):
            raise ValueError("length_regime must be 'near_field' or 'far_field'")
        if not (self.omega0_tau > 0.0 and math.isfinite(self.omega0_tau)):
            raise ValueError("omega0*tau margin must be finite and positive")
        if not (self.d_over_xi >= 0.0):
            raise ValueError("d/xi margin must be non-negative")


def omega0_for(model, geom: GeometryConfig) -> float:
    """Characteristic noise frequency: the mode relaxation rate at q = 1/d.

    This reproduces the conventional scales Gamma0*J*(xi^-2 + d^-2) for the
    non-conserved model, D_s/d^2 diffusive and sigma_s*J/d^4 critical for
    the conserved one, and Gamma*(1 + xi^2/d^2) for the quantum-critical
    form.  Crossover estimates built on it are order-one accurate only.
    """
    m = as_lorentzian_model(model)
    d = float(np.min(geom.depths))
    _, r = lorentzian_parameters(m, 1.0 / d)
    return float(r)


def classify_regime(model, geom: GeometryConfig, tau: float) -> RegimeLabel:
    """Label (static|dynamic) x (near|far field) with crossover warnings."""
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    m = as_lorentzian_model(model)
    d = float(np.min(geom.depths))
    xi = getattr(m, "xi", math.inf)
    w0t = omega0_for(m, geom) * tau
    dxi = d / xi if math.isfinite(xi) else 0.0
    for name, margin in (("omega0*tau", w0t), ("d/xi", dxi)):
        if margin > 0.0 and 0.1 < margin < 10.0:
            warnings.warn(f"{name} = {margin:.3g} is within a factor 10 of a "
                          "crossover; asymptotic cells are unreliable here",
                          stacklevel=2)
    return RegimeLabel(
        time_regime=DYNAMIC if w0t >= 1.0 else STATIC,
        length_regime=FAR_FIELD if dxi >= 1.0 else NEAR_FIELD,
        omega0_tau=w0t,
        d_over_xi=dxi,
    )


def heuristic_phi_squared(tau, d, xi, omega0, kappa=1.0):
    """kappa^2 (tau^2/d^2) min(1, 1/(omega0 tau)) min(1, xi^2/d^2).

    Continuous across both crossovers by construction.
    """
    tau, d, xi, omega0 = map(float, (tau, d, xi, omega0))
    if min(tau, d, xi, omega0) <= 0.0:
        raise ValueError("tau, d, xi, omega0 must be positive")
    return kappa**2 * (tau**2 / d**2) * min(1.0, 1.0 / (omega0 * tau)) \
        * min(1.0, xi**2 / d**2)


def table1_classical(model, regime: RegimeLabel, tau: float, d: float) -> float:
    """Asymptotic phase-variance cell for the classical models, unit prefactor.

    Dynamic rows: non-conserved critical (T tau/Gamma0) ln(tau Gamma0/d^2),
    far field T tau xi^4/(Gamma0 d^4); conserved critical T tau^{3/2}/sqrt(sigma_s),
    far field T tau xi^4/(sigma_s d^2).  Static rows are model-independent:
    T tau^2/d^2 at criticality and T tau^2 xi^2/(J d^4) in the far field.
    """
    if not (tau > 0.0 and d > 0.0):
        raise ValueError("tau and d must be positive")
    if not isinstance(model, (ModelA, ModelB)):
        raise TypeError("table1_classical covers the classical relaxational models only")
    critical = regime.length_regime == NEAR_FIELD
    if critical and math.isfinite(model.xi) and regime.d_over_xi >= 1.0:
        raise ValueError("near-field cell requested but d/xi >= 1")
    T = model.T
    if regime.time_regime == STATIC:
        if critical:
            return T * tau**2 / d**2
        return T * tau**2 * model.xi**2 / (model.J * d**4)
    if isinstance(model, ModelA):
        if critical:
            arg = tau * model.gamma0 / d**2
            if arg <= 1.0:
                raise ValueError("dynamic critical cell needs tau*Gamma0/d^2 > 1")
            return (T * tau / model.gamma0) * math.log(arg)
        return T * tau * model.xi**4 / (model.gamma0 * d**4)
    if critical:
        return T * tau**1.5 / math.sqrt(model.sigma_s)
    return T * tau * model.xi**4 / (model.sigma_s * d**2)


def table1_quantum(model, T: float, tau: float, d: float, delta: float = 0.0) -> float:
    """Asymptotic phase-variance cell for the quantum models, unit prefactor.

    The three O(3) rows all come from T*tau*chi_u/(d^2 D_s) with the regime
    transport coefficients; the quantum-critical transverse-field row is
    tau T^{(2+eta)/z}/c^4 * ln(c/(d T^{1/z})).  Valid in the dynamic,
    near-field window only.

    The diffusive rows (O(3) and DiffusiveO3) are the engine's
    motional-narrowing limit: phi_squared -> table/(4 pi) as tau D_s/d^2
    grows.  Acceptance criterion 09 checks this table, not the engine.
    """
    if not (T > 0.0 and tau > 0.0 and d > 0.0):
        raise ValueError("T, tau, d must be positive")
    if isinstance(model, TfimQC):
        m = TfimQC(c=model.c, T=T, z=model.z, eta=model.eta)
        arg = m.c / (d * T ** (1.0 / m.z))
        if arg <= 1.0:
            raise ValueError("quantum-critical cell needs d below the thermal length c/T^{1/z}")
        return tau * T ** ((2.0 + m.eta) / m.z) / m.c**4 * math.log(arg)
    if isinstance(model, O3Regime):
        m = O3Regime(c=model.c, T=T, delta=delta if delta else model.delta, side=model.side)
        chi_u, d_s = o3_transport(m)
        return T * tau * chi_u / (d**2 * d_s)
    if isinstance(model, DiffusiveO3):
        return T * tau * model.chi_u / (d**2 * model.D_s)
    raise TypeError("table1_quantum covers the O(3) and transverse-field models only")
