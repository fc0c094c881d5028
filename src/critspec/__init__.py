"""critspec: qubit decoherence as a probe of critical magnetic fluctuations.

A probe qubit at height d above a two-dimensional magnet dephases under the
sample's stray field.  This package computes that decoherence from first
principles: pulse-sequence filter functions and the dipolar momentum filter
(filters), dynamic structure factors of relaxational and quantum-critical
models (models), the noise spectral density and the phase variance as
q-integrals of closed-form per-mode kernels (noise), closed-form asymptotic regimes (asymptotics),
critical-exponent extraction by scaling collapse (collapse), an exact
stochastic oracle (oracle), and a CLI (cli).  Natural units hbar = k_B = 1
throughout except the SI materials estimate (materials).
"""

__version__ = "0.1.0"

from .asymptotics import (NonGaussianOrder, RegimeLabel, ScalingExponents,
                          classify_regime, cpmg_regimes, heuristic_phi_squared,
                          nongaussian_exponents, omega0_for, table1_classical,
                          table1_quantum)
from .collapse import (CollapseResult, SweepGrid, classical_collapse,
                       collapse_quality, quantum_collapse, tc_locate)
from .filters import (GeometryConfig, PulseSequence, cpmg_delta_comb,
                      comb_tail_bound, cpmg_filter, custom_filter,
                      filter_function, jump_weights, momentum_filter,
                      ramsey_filter)
from .materials import CRI3, MaterialParams, cri3_t2_estimate, field_prefactor_si
from .models import (DiffusiveO3, ModelA, ModelB, O3Regime, SampleModel, TfimQC,
                     as_lorentzian_model, chi, fdt_convert, lorentzian_coupling,
                     lorentzian_parameters, o3_transport, structure_factor)
from .noise import (DecoherenceCurve, NoCrossingError, QubitParams, coherence,
                    cpmg_closed_form, decoherence_curve, filter_weight_integral,
                    noise_spectral_density, ou_phase_kernel, phi_squared,
                    sequence_at, t2_extract)
from .oracle import (FieldTrace, LatticeSpec, mode_sum_noise_density,
                     mode_sum_phi_squared, monte_carlo_phi_squared,
                     simulate_field_trace, stationary_b_variance)
from .quadrature import QuadratureError, integrate, log_edges

__all__ = [
    "__version__",
    # filters
    "PulseSequence", "GeometryConfig", "ramsey_filter", "cpmg_filter",
    "custom_filter", "filter_function", "cpmg_delta_comb", "comb_tail_bound",
    "jump_weights", "momentum_filter",
    # models
    "ModelA", "ModelB", "DiffusiveO3", "TfimQC", "O3Regime", "SampleModel",
    "lorentzian_parameters", "lorentzian_coupling", "chi", "structure_factor",
    "fdt_convert", "o3_transport", "as_lorentzian_model",
    # noise
    "QubitParams", "DecoherenceCurve", "NoCrossingError",
    "noise_spectral_density", "ou_phase_kernel",
    "phi_squared", "decoherence_curve", "coherence", "t2_extract",
    "cpmg_closed_form", "filter_weight_integral", "sequence_at",
    # materials
    "MaterialParams", "CRI3", "cri3_t2_estimate", "field_prefactor_si",
    # asymptotics
    "RegimeLabel", "NonGaussianOrder", "ScalingExponents", "omega0_for",
    "classify_regime", "heuristic_phi_squared", "table1_classical",
    "table1_quantum", "cpmg_regimes", "nongaussian_exponents",
    # collapse
    "SweepGrid", "CollapseResult", "collapse_quality", "classical_collapse",
    "quantum_collapse", "tc_locate",
    # oracle
    "LatticeSpec", "FieldTrace", "simulate_field_trace",
    "monte_carlo_phi_squared", "mode_sum_phi_squared", "mode_sum_noise_density",
    "stationary_b_variance",
    # quadrature
    "integrate", "log_edges", "QuadratureError",
]
