"""critspec: qubit decoherence as a probe of critical magnetic fluctuations.

A probe qubit at height d above a two-dimensional magnet dephases under the
sample's stray field.  This package computes that decoherence from first
principles: pulse-sequence filter functions and the dipolar momentum filter
(filters), dynamic structure factors of relaxational and quantum-critical
models (models), the noise spectral density and the phase variance as
q-integrals of closed-form per-mode kernels (noise), closed-form asymptotic regimes (asymptotics),
critical-exponent extraction by scaling collapse (collapse), an exact
stochastic oracle (oracle), and a CLI (cli).  Natural units hbar = k_B = 1
throughout except the SI materials estimate (materials).  The top level
re-exports every public name of each module but cli.
"""

__version__ = "0.1.0"

from . import asymptotics, collapse, filters, materials, models, noise, oracle, quadrature
from .asymptotics import *
from .collapse import *
from .filters import *
from .materials import *
from .models import *
from .noise import *
from .oracle import *
from .quadrature import *

__all__ = ["__version__", *(name for module in (asymptotics, collapse, filters, materials,
                                                models, noise, oracle, quadrature)
                            for name in module.__all__)]
