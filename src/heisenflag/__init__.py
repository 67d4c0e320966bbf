"""Numerical toolkit for flag-multiplier convolution algebras on H^n.

The package realizes, on centered periodic grids, the dictionary between
group convolution operators, their Schrodinger-representation fibers, and
phase-space symbols, together with a fiberwise inversion pipeline and
verifiers for the defining derivative estimates.
"""

from .group import GroupPoint, dilate, group_inv, group_mul, homogeneous_norm, identity
from .grids import Axis, Grid, LineGrid, group_grid, self_dual_line
from .fields import LambdaWindow, SampledField
from .transform import (
    central_frequencies,
    central_slice_energy,
    convolve,
    fourier,
    gaussian_field,
    inverse_fourier,
    l2_norm,
    lambda_filter,
    spike_field,
    star_involution,
)
from .schrodinger import (
    FiberOperator,
    StateVector,
    big_c_fun,
    c_fun,
    gramian,
    hs_norm,
    load_operator,
    pi_field,
    pi_point,
    save_operator,
)
from .symbols import (
    SeminormReport,
    SeminormRow,
    Spectrum,
    SymbolGrid,
    SympySpectrum,
    fiber_symbol,
    field_of_spectrum,
    flag_estimate_report,
    kn_quantize,
    kn_symbol_of,
    twisted_product,
    unit_symbol,
)
from .kernels import CATALOG, KernelParseError, make_spectrum
from .inversion import (
    SIGMA_FLOOR,
    FiberInversionError,
    InversionResult,
    ReconstructedSpectrum,
    SymmetryError,
    derivative_report,
    gramian_lower_bound,
    invert_fiber,
    invert_flag,
    lambda_derivative_check,
    neumann_inverse,
    uniform_invertibility_report,
    verify_inverse,
)
from .checks import BATTERY, IdentityCheck, IdentityContext, default_context, run_identity_battery
from .cli import ExperimentConfig, main

__all__ = [
    "GroupPoint", "dilate", "group_inv", "group_mul",
    "homogeneous_norm", "identity",
    "Axis", "Grid", "LineGrid", "group_grid", "self_dual_line",
    "LambdaWindow", "SampledField",
    "central_frequencies", "central_slice_energy", "convolve", "fourier",
    "gaussian_field", "inverse_fourier", "l2_norm", "lambda_filter",
    "spike_field", "star_involution",
    "FiberOperator", "StateVector", "big_c_fun", "c_fun", "gramian",
    "hs_norm", "load_operator", "pi_field", "pi_point", "save_operator",
    "SeminormReport", "SeminormRow", "Spectrum", "SymbolGrid",
    "SympySpectrum", "fiber_symbol", "field_of_spectrum",
    "flag_estimate_report", "kn_quantize", "kn_symbol_of", "twisted_product",
    "unit_symbol",
    "CATALOG", "KernelParseError", "make_spectrum",
    "SIGMA_FLOOR", "FiberInversionError", "InversionResult",
    "ReconstructedSpectrum", "SymmetryError", "derivative_report",
    "gramian_lower_bound", "invert_fiber", "invert_flag",
    "lambda_derivative_check", "neumann_inverse",
    "uniform_invertibility_report", "verify_inverse",
    "BATTERY", "IdentityCheck", "IdentityContext", "default_context",
    "run_identity_battery",
    "ExperimentConfig", "main",
]

__version__ = "0.1.0"
