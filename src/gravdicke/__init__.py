"""Collective single-photon emission from random atomic arrays in weak gravity.

A desk-scale simulation chain: gravitationally perturbed electromagnetic
eigenmodes, redshift-corrected spontaneous emission of a phased collective
excitation, and the resulting one-sided broadening of the emitted photon's
direction and frequency — with every analytic result cross-checked against an
independent numerical route (finite differences, adaptive quadrature, or
Monte Carlo).
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    GravDickeError,
    LinearizationError,
    OracleMismatchError,
    PhysicsDomainError,
    QuadratureError,
)
from .metric import PhysicalConstants, WeakFieldMetric, surface_param_a
from .modes import (
    ModeIndex,
    PerturbedMode,
    flat_polarization_basis,
    local_wavevector,
    mode_amplitude,
    mode_field_first_order,
    mode_phase,
    perturbation_M,
    polarization_E,
    polarization_H,
)
from .maxwell import (
    ResidualReport,
    StencilSpec,
    residual_slope_study,
    transversality_check,
    wave_residual,
)
from .emission import (
    Box,
    Ensemble,
    TimedDickeState,
    curved_timed_dicke,
    sample_ensemble,
    single_atom_survival,
)
from .spectrum import (
    AngularSpectrum,
    SpectrumParams,
    analytic_spectrum,
    flat_delta_limit,
    frequency_spread,
    g_kernel,
    kernel_area,
    kernel_decay_constant,
    monte_carlo_spectrum,
    quadrature_spectrum,
    replicated_mc_spectrum,
    structure_factor,
    structure_factor_expectation,
    wavevector_spread,
    z_integral_oracle,
)
